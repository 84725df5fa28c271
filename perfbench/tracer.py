"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces each public function listed in LAYERS with a wrapper on
every module binding that holds it (and on the class for methods), records
one span per call (function, start, end, parent span, operation id) in
memory, and reads its counts from the call's arguments and result.  Nothing
in divclass is edited: the wrappers are installed around a traced operation
and removed after it.

Self time of a span is its duration minus the part of its interval covered
by its child spans; busy time of a function is the union of its spans.
"""

from __future__ import annotations

import gc
import importlib
import pkgutil
import sys
import time
from array import array
from dataclasses import dataclass


class Deadline(BaseException):
    """Raised by the alarm handler when an operation misses its deadline.

    A BaseException, so that no `except Exception` in the program or its
    dependencies can swallow it.
    """


@dataclass(frozen=True)
class Traced:
    """One wrapped function: `module.attr` (attr may be Class.method)."""

    module: str
    attr: str
    bindings: tuple[str, ...]  # other divclass modules importing the function

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


LAYERS: tuple[Traced, ...] = (
    Traced("cli", "main", ()),
    Traced("parser", "parse_polynomial", ("cli", "divclass")),
    Traced("wpoly", "validate_factorization", ("classgroup", "cli", "oracle", "divclass")),
    Traced("wpoly", "count_factors_one_plus_tc", ("cli", "oracle", "divclass")),
    Traced("wpoly", "enumerate_monomials_of_degree", ("hyperring", "sections")),
    Traced("univariate", "q_irreducible", ()),
    Traced("univariate", "fp_irreducible", ()),
    Traced("exactmath", "smith_normal_form", ()),
    Traced("exactmath", "cokernel_with_generator_images", ("classgroup",)),
    Traced("classgroup", "compute_class_group", ("cli", "oracle", "divclass")),
    Traced("classgroup", "x0_extension_mode", ("cli", "divclass")),
    Traced("qdivisor", "DivisorContext.build", ()),
    Traced("sections", "verify_section_ring", ("cli",)),
    Traced("sections", "divisorial_module_component", ("oracle",)),
    Traced("hyperring", "ideal_graded_component", ("oracle",)),
    Traced("hyperring", "hilbert_coefficients", ("cli",)),
    Traced("linalg", "Subspace.unit_space", ()),
    Traced("linalg", "Subspace.insert", ()),
    Traced("linalg", "Subspace.intersect", ()),
    Traced("linalg", "intersect_all", ("oracle",)),
    Traced("linalg", "Subspace.__eq__", ()),
    Traced("linalg", "Subspace.contains_space", ()),
    Traced("oracle", "verify_divisorial_ideal_graded", ()),
    Traced("oracle", "verify_order_relations_graded", ()),
    Traced("oracle", "monomial_model_classgroup", ()),
)

# Counts read from arguments and results.  README.md gives the end-to-end
# metric each layer and count is expected to move.
COUNTS = (
    "wpoly.monomials_enumerated",
    "wpoly.enumerate.hit_ratio",
    "exactmath.snf.max_transform_bits",
    "exactmath.snf.timeouts",
    "sections.divisorial_module_component.dim_sum",
    "sections.divisorial_module_component.repeat_ratio",
    "hyperring.ideal_graded_component.dim_sum",
    "linalg.Subspace.unit_space.rows",
    "linalg.Subspace.insert.unit_rows",
    "linalg.Subspace.insert.general_rows",
    "linalg.Subspace.insert.grew_ratio",
    "oracle.degrees_checked",
    "gc.collections_gen2",
    "gc.pause_s",
    "trace.overhead_frac",
)

_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}
_COUNT_UNITS = {"_ratio": "ratio", "_frac": "ratio", "_s": "s", "_bits": "bits"}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in report order."""
    out = [(f"{t.name}.{k}", u) for t in LAYERS for k, u in _UNITS.items()]
    for name in COUNTS:
        unit = next((u for suffix, u in _COUNT_UNITS.items() if name.endswith(suffix)), "count")
        out.append((name, unit))
    return out


# ---------------------------------------------------------------------------
# span arithmetic


def _union(intervals) -> int:
    """Total length of a union of intervals given in start order."""
    total = 0
    cur_start = cur_end = None
    for s, e in intervals:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(starts, ends, parents) -> list[int]:
    """Duration of each span minus the union of its children, clipped to it.

    Spans are listed in start order, so every child follows its parent.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        kids = children.get(i, ())
        covered = _union(
            (max(s, starts[k]), min(e, ends[k])) for k in kids if ends[k] > s and starts[k] < e
        )
        out.append(e - s - covered)
    return out


def busy_time(starts, ends) -> int:
    """Union of one function's spans (nested calls to itself count once)."""
    return _union(sorted(zip(starts, ends)))


# ---------------------------------------------------------------------------
# installation


def _resolve(module, attr: str):
    """(owner, name, raw attribute) for `f` or `Class.method`."""
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    raw = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


def _load_package():
    pkg = importlib.import_module("divclass")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"divclass.{info.name}")
    return {
        ("divclass" if name == "divclass" else name.split(".", 1)[1]): mod
        for name, mod in sys.modules.items()
        if name == "divclass" or name.startswith("divclass.")
    }


class Tracer:
    """Spans and counts of traced operations.

    The wrappers are installed by `begin` and removed by `finish`, so an
    untraced operation runs the program's own functions.
    """

    def __init__(self):
        modules = _load_package()
        self.fids = {t.name: i for i, t in enumerate(LAYERS)}
        self.fid = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts = {name: 0 for name in COUNTS}
        self.seen: set = set()
        self._repeats = 0
        self._grew = 0
        self._cache = modules["wpoly"]._enumerate  # fails loudly if it moved
        self._hits = self._misses = 0
        self._gc_start = 0
        self._patches = []  # (owner, name, original, wrapped)
        for t in LAYERS:
            owner, name, raw = _resolve(modules[t.module], t.attr)
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            wrapped = self._wrap(self.fids[t.name], fn, t.name)
            if isinstance(owner, type):
                # a method: the class is its one binding
                self._patches.append((owner, name, raw, kind(wrapped) if kind else wrapped))
                continue
            found = {
                short
                for short, mod in modules.items()
                if short != t.module and any(v is fn for v in vars(mod).values())
            }
            if found != set(t.bindings):
                raise RuntimeError(
                    f"{t.module}.{t.attr} is bound in {sorted(found)}, the layer table "
                    f"says {sorted(t.bindings)}; update LAYERS before tracing"
                )
            for short in (t.module, *t.bindings):
                mod = modules[short]
                self._patches.extend((mod, k, fn, wrapped) for k, v in vars(mod).items() if v is fn)

    def _wrap(self, fid: int, fn, name: str):
        fids, starts, ends, parents, ops = self.fid, self.start, self.end, self.parent, self.op
        stack = self.stack
        hook = _HOOKS.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Deadline:
                if name == "exactmath.smith_normal_form":
                    self.counts["exactmath.snf.timeouts"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- one traced operation ------------------------------------------------

    def begin(self, op_id: int) -> None:
        self.op_id = op_id
        self.seen.clear()
        self.stack.clear()
        info = self._cache.cache_info()
        self._hits -= info.hits
        self._misses -= info.misses
        gc.callbacks.append(self._on_gc)
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def finish(self) -> None:
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)
        gc.callbacks.remove(self._on_gc)
        info = self._cache.cache_info()
        self._hits += info.hits
        self._misses += info.misses
        # a deadline can fire between a span's start and its bookkeeping
        now = time.perf_counter_ns()
        for idx in self.stack:
            if self.end[idx] == 0:
                self.end[idx] = now
        self.stack.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
            return
        self.counts["gc.pause_s"] += (time.perf_counter_ns() - self._gc_start) / 1e9
        if info.get("generation") == 2:
            self.counts["gc.collections_gen2"] += 1

    # -- report --------------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        selfs = self_times(self.start, self.end, self.parent)
        by_fid: dict[int, list[int]] = {}
        for i, f in enumerate(self.fid):
            by_fid.setdefault(f, []).append(i)
        out: dict[str, float] = {}
        for t in LAYERS:
            idx = by_fid.get(self.fids[t.name], [])
            out[f"{t.name}.calls"] = len(idx)
            out[f"{t.name}.busy_s"] = busy_time([self.start[i] for i in idx], [self.end[i] for i in idx]) / 1e9
            out[f"{t.name}.self_s"] = sum(selfs[i] for i in idx) / 1e9
        counts = dict(self.counts)
        modules = out["sections.divisorial_module_component.calls"]
        inserts = out["linalg.Subspace.insert.calls"]
        lookups = self._hits + self._misses
        counts["sections.divisorial_module_component.repeat_ratio"] = self._repeats / modules if modules else 0.0
        counts["linalg.Subspace.insert.grew_ratio"] = self._grew / inserts if inserts else 0.0
        counts["wpoly.enumerate.hit_ratio"] = self._hits / lookups if lookups else 0.0
        counts["trace.overhead_frac"] = overhead_frac
        out.update(counts)
        return out

    def write_spans(self, path) -> None:
        names = [t.name for t in LAYERS]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# function\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.fid)):
                fh.write(
                    f"{names[self.fid[i]]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\t{self.op[i]}\n"
                )


# ---------------------------------------------------------------------------
# counts read from arguments and results


def _enumerated(tr: Tracer, args, result) -> None:
    tr.counts["wpoly.monomials_enumerated"] += len(result)


def _snf(tr: Tracer, args, result) -> None:
    U, _, V = result
    bits = max((abs(x).bit_length() for row in U + V for x in row), default=0)
    key = "exactmath.snf.max_transform_bits"
    tr.counts[key] = max(tr.counts[key], bits)


def _module(tr: Tracer, args, result) -> None:
    dctx, E0, j = args
    key = (id(dctx), tuple(E0.coeffs), j)
    tr._repeats += key in tr.seen
    tr.seen.add(key)
    tr.counts["sections.divisorial_module_component.dim_sum"] += result.dim


def _ideal(tr: Tracer, args, result) -> None:
    tr.counts["hyperring.ideal_graded_component.dim_sum"] += result.dim


def _unit_space(tr: Tracer, args, result) -> None:
    tr.counts["linalg.Subspace.unit_space.rows"] += result.dim


def _insert(tr: Tracer, args, result) -> None:
    kind = "unit_rows" if len(args[1]) == 1 else "general_rows"
    tr.counts[f"linalg.Subspace.insert.{kind}"] += 1
    tr._grew += result is True


def _ideal_degrees(tr: Tracer, args, result) -> None:
    tr.counts["oracle.degrees_checked"] += result.depth + 1


def _relation_degrees(tr: Tracer, args, result) -> None:
    # each factor's order check plus the intersection (or containment) check
    tr.counts["oracle.degrees_checked"] += (result.depth + 1) * (args[0].r + 1)


_HOOKS = {
    "wpoly.enumerate_monomials_of_degree": _enumerated,
    "exactmath.smith_normal_form": _snf,
    "sections.divisorial_module_component": _module,
    "hyperring.ideal_graded_component": _ideal,
    "linalg.Subspace.unit_space": _unit_space,
    "linalg.Subspace.insert": _insert,
    "oracle.verify_divisorial_ideal_graded": _ideal_degrees,
    "oracle.verify_order_relations_graded": _relation_degrees,
}
