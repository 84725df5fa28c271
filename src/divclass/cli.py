"""Command line front end: JSON job files in, canonical JSON reports out.

Reports are serialized with sorted keys and a fixed indent so identical jobs
produce byte-identical output; anything nondeterministic (timing) goes to
stderr.  Exit codes: 0 success, 2 for rejected input (hypothesis violations,
parse errors, malformed jobs), 1 for internal errors, which here means a
verification that should have passed did not, or an actual bug.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from dataclasses import dataclass

from .classgroup import ClassGroupResult, compute_class_group, x0_extension_mode
from .errors import (
    DegenerateInput,
    DivclassError,
    InternalInconsistency,
    JobFileError,
    PolynomialSyntaxError,
)
from .fields import FieldSpec
from .hyperring import HypersurfaceInput, graded_dim, hilbert_coefficients
from .parser import parse_polynomial
from .sections import verify_section_ring
from .wpoly import (
    WeightedRing,
    count_factors_one_plus_tc,
    factor_product,
    validate_factorization,
    weighted_degree,
)

SCHEMA_VERSION = 1

_REQUIRED_KEYS = ("schema_version", "field", "n", "variables", "weights", "factors")
_OPTIONAL_KEYS = ("g", "x0", "assume_normal", "verify_depth", "oracle")


@dataclass(frozen=True)
class JobFile:
    field: FieldSpec
    n: int
    variables: tuple[str, ...]
    weights: tuple[int, ...]
    factors: tuple[str, ...]
    g: str | None = None
    x0: str | None = None
    assume_normal: bool = False
    verify_depth: int | None = None
    oracle: bool = True

    @staticmethod
    def from_dict(data: dict) -> "JobFile":
        if not isinstance(data, dict):
            raise JobFileError("job file must be a JSON object")
        unknown = sorted(set(data) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS))
        if unknown:
            raise JobFileError(f"unknown job keys: {', '.join(unknown)}")
        missing = [k for k in _REQUIRED_KEYS if k not in data]
        if missing:
            raise JobFileError(f"missing job keys: {', '.join(missing)}")
        if data["schema_version"] != SCHEMA_VERSION:
            raise JobFileError(
                f"unsupported schema_version {data['schema_version']!r}; "
                f"this build reads version {SCHEMA_VERSION}"
            )
        field = FieldSpec.parse(_expect(data, "field", str))
        n = _expect(data, "n", int)
        variables = _string_list(data, "variables")
        weights = tuple(_int_list(data, "weights"))
        factors = _string_list(data, "factors")
        if not factors:
            raise JobFileError("factors must be a non-empty list")
        g = data.get("g")
        if g is not None and not isinstance(g, str):
            raise JobFileError("g must be a string")
        x0 = data.get("x0")
        if x0 is not None and not isinstance(x0, str):
            raise JobFileError("x0 must be a string")
        assume_normal = data.get("assume_normal", False)
        if not isinstance(assume_normal, bool):
            raise JobFileError("assume_normal must be a boolean")
        depth = data.get("verify_depth")
        if depth is not None and (not isinstance(depth, int) or depth < 0):
            raise JobFileError("verify_depth must be a nonnegative integer")
        oracle_on = data.get("oracle", True)
        if not isinstance(oracle_on, bool):
            raise JobFileError("oracle must be a boolean")
        return JobFile(
            field=field,
            n=n,
            variables=tuple(variables),
            weights=weights,
            factors=tuple(factors),
            g=g,
            x0=x0,
            assume_normal=assume_normal,
            verify_depth=depth,
            oracle=oracle_on,
        )

    @staticmethod
    def load(path: str) -> "JobFile":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise JobFileError(f"cannot read job file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise JobFileError(f"job file {path} is not valid JSON: {exc}") from exc
        return JobFile.from_dict(data)


def _expect(data: dict, key: str, kind) -> object:
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise JobFileError(f"{key} must be of type {kind.__name__}")
    return value


def _string_list(data: dict, key: str) -> list[str]:
    value = data[key]
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise JobFileError(f"{key} must be a list of strings")
    return value


def _int_list(data: dict, key: str) -> list[int]:
    value = data[key]
    if not isinstance(value, list) or any(
        not isinstance(v, int) or isinstance(v, bool) for v in value
    ):
        raise JobFileError(f"{key} must be a list of integers")
    return value


# ---------------------------------------------------------------------------
# pipeline orchestration

def _run_pipeline(job: JobFile) -> ClassGroupResult:
    ring = WeightedRing(job.variables, job.weights, job.field)
    factors = [parse_polynomial(text, ring) for text in job.factors]
    declared = parse_polynomial(job.g, ring) if job.g is not None else None
    if job.x0 is not None:
        if declared is not None:
            factor_product(factors, ring, declared)
        return x0_extension_mode(
            ring, job.n, factors, x0=job.x0, assume_normal=job.assume_normal
        )
    factored = validate_factorization(factors, ring, job.n, declared)
    g = factored.product
    inp = HypersurfaceInput(
        ring=ring, n=job.n, g=g, factored=factored, m=weighted_degree(g)
    )
    return compute_class_group(inp, assume_normal=job.assume_normal)


def _json_safe(value):
    """Recursively stringify integers that overflow 53-bit float safety.

    Applied to whole payloads, so the rule is uniform: any consumer parsing
    numbers as doubles sees either an exact int or a decimal string.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) >= 2**53 else value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    return value


def _result_payload(result: ClassGroupResult) -> dict:
    report = result.report
    payload = {
        "schema_version": SCHEMA_VERSION,
        "mode": result.mode,
        "hypotheses": {
            "variables": list(report.variables),
            "weights": list(report.weights),
            "n": report.n,
            "m": report.m,
            "gcd_m_n": report.gcd_m_n,
            "factorization": report.factorization_status,
            "normality": report.normality_status,
            "notes": list(report.notes),
        },
        "class_group": {
            "invariant_factors": list(result.group.invariant_factors),
            "order": result.group.order,
        },
        "generators": [
            {
                "pair": list(gen.pair),
                "order": gen.order,
                "degree_z": gen.degree_z,
                "degree_h": gen.degree_h,
                "image": list(gen.image),
            }
            for gen in result.generators
        ],
        "relations": [
            {
                "statement": rel.statement,
                "divisor_identity": rel.divisor_identity,
                "identity_holds": rel.identity_holds,
                "witness": rel.witness,
            }
            for rel in result.relations
        ],
        "effective_factors": result.r,
        "closure_splits": (
            list(result.closure_splits) if result.closure_splits is not None else None
        ),
        "x0_weight": result.x0_weight,
    }
    return payload


def _resolve_depth(inp: HypersurfaceInput, depth: int | None) -> int:
    """The largest degree to check: the one asked for, else the input's default."""
    if depth is None:
        return inp.default_depth()
    if depth < 0:
        raise DegenerateInput("depth must be nonnegative")
    return depth


def _verification_payload(result: ClassGroupResult, job: JobFile) -> dict:
    dctx = result.context
    inp = dctx.input
    depth = _resolve_depth(inp, job.verify_depth)
    section = verify_section_ring(dctx, depth)
    series = hilbert_coefficients(inp, depth)
    hilbert_mismatch = None
    for j in range(depth + 1):
        if graded_dim(inp, j) != series[j]:
            hilbert_mismatch = j
            break
    payload = {
        "depth": depth,
        "section_ring": {
            "checked": section.checked,
            "status": "pass" if section.all_match else "fail",
            "mismatches": list(section.mismatches),
        },
        "hilbert": {
            "status": "pass" if hilbert_mismatch is None else "fail",
            "first_mismatch": hilbert_mismatch,
        },
        "oracle": None,
    }
    failed = not section.all_match or hilbert_mismatch is not None
    if job.oracle:
        oracle_payload, oracle_failed = _oracle_payload(result, depth)
        payload["oracle"] = oracle_payload
        failed = failed or oracle_failed
    payload["status"] = "fail" if failed else "pass"
    return payload


def _oracle_payload(result: ClassGroupResult, depth: int) -> tuple[dict, bool]:
    from . import oracle

    dctx = result.context
    inp = dctx.input
    failed = False
    if result.splits_over_closure:
        return (
            {
                "status": "skipped",
                "note": "closure components have no exact representation",
            },
            False,
        )
    if inp.n == 1:
        return ({"status": "skipped", "note": "n = 1, nothing to verify"}, False)
    ideals = []
    for t in range(dctx.r):
        outcome = oracle.verify_divisorial_ideal_graded(dctx, t, depth)
        ideals.append(
            {
                "t": t,
                "status": "pass" if outcome.ok else "fail",
                "failures": list(outcome.failures),
            }
        )
        failed = failed or not outcome.ok
    relations = oracle.verify_order_relations_graded(dctx, depth)
    failed = failed or not relations.ok
    payload = {
        "status": None,
        "divisorial_ideals": ideals,
        "order_relations": {
            "variant": relations.variant,
            "order_ok": relations.order_ok,
            "intersection_ok": relations.intersection_ok,
            "failures": list(relations.failures),
        },
        "monomial_model": None,
    }
    if _is_two_variable_product(dctx):
        report = oracle.monomial_model_classgroup(inp.n)
        consistent = (
            report.conclusive
            and report.principal_iff_multiple
            and report.order == inp.n
        )
        payload["monomial_model"] = {
            "n": inp.n,
            "bound": report.bound,
            "status": "pass" if consistent else "fail",
            "order": report.order,
        }
        failed = failed or not consistent
    payload["status"] = "fail" if failed else "pass"
    return payload, failed


def _is_two_variable_product(dctx) -> bool:
    """True for the z^n - x_i x_j shape that the lattice model covers."""
    if dctx.input.ring.d != 2 or dctx.r != 2:
        return False
    comps = [dctx.components[idx] for idx in dctx.factor_component]
    return (
        all(c.kind == "variable" for c in comps)
        and comps[0].index != comps[1].index
    )


def run_job(job: JobFile, verify: bool = False) -> tuple[dict, int]:
    """Execute a job and return (report payload, exit code)."""
    try:
        result = _run_pipeline(job)
        payload = _result_payload(result)
        if verify:
            payload["verification"] = _verification_payload(result, job)
            if payload["verification"]["status"] == "fail":
                return _json_safe(payload), 1
        return _json_safe(payload), 0
    except DivclassError as exc:
        return _error_payload(exc), _exit_code(exc)


def _exit_code(exc: DivclassError) -> int:
    """1 for an internal error, 2 for rejected input."""
    return 1 if isinstance(exc, InternalInconsistency) else 2


def _error_code(exc: DivclassError) -> str:
    name = type(exc).__name__
    out = [name[0]]
    for ch in name[1:]:
        if ch.isupper():
            out.append("_")
        out.append(ch)
    return "".join(out).upper()


def _error_payload(exc: DivclassError) -> dict:
    error = {"code": _error_code(exc), "message": str(exc)}
    if isinstance(exc, PolynomialSyntaxError):
        error["position"] = exc.position
    return {"schema_version": SCHEMA_VERSION, "error": error}


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classgroup(args) -> int:
    job = JobFile.load(args.job)
    started = time.perf_counter()
    payload, code = run_job(job, verify=False)
    _emit(payload)
    print(f"classgroup finished in {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


def _cmd_verify(args) -> int:
    job = JobFile.load(args.job)
    if args.depth is not None:
        job = dataclasses.replace(job, verify_depth=args.depth)
    started = time.perf_counter()
    payload, code = run_job(job, verify=True)
    _emit(payload)
    print(f"verify finished in {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


def _cmd_hilbert(args) -> int:
    result = _run_pipeline(JobFile.load(args.job))
    inp = result.context.input
    depth = _resolve_depth(inp, args.depth)
    series = hilbert_coefficients(inp, depth)
    direct = [graded_dim(inp, j) for j in range(depth + 1)]
    lines = ["      j   series   direct"]
    for j in range(depth + 1):
        marker = "" if series[j] == direct[j] else "   MISMATCH"
        lines.append(f"{j:7d} {series[j]:8d} {direct[j]:8d}{marker}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if series == direct else 1


def _cmd_factors_count(args) -> int:
    count = count_factors_one_plus_tc(args.c, FieldSpec.parse(args.field))
    sys.stdout.write(f"{count}\n")
    return 0


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The `divclass` parser, built on first use and shared by later calls.

    Parsing keeps no state on the parser: each `parse_args` returns a new
    namespace, so one parser serves every `main` call in a process.
    """
    parser = argparse.ArgumentParser(
        prog="divclass",
        description="Divisor class groups of graded hypersurfaces z^n = g",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cg = sub.add_parser("classgroup", help="compute the class group for a job file")
    p_cg.add_argument("job", help="path to a JSON job file")
    p_cg.set_defaults(func=_cmd_classgroup)

    p_v = sub.add_parser("verify", help="compute and run the verification suite")
    p_v.add_argument("job", help="path to a JSON job file")
    p_v.add_argument("--depth", type=int, default=None, help="override verification depth")
    p_v.set_defaults(func=_cmd_verify)

    p_h = sub.add_parser("hilbert", help="print Hilbert coefficients, both methods")
    p_h.add_argument("job", help="path to a JSON job file")
    p_h.add_argument("--depth", type=int, default=None, help="largest degree to print")
    p_h.set_defaults(func=_cmd_hilbert)

    p_f = sub.add_parser(
        "factors-count", help="number of irreducible factors of 1 + t^c"
    )
    p_f.add_argument("--c", type=int, required=True)
    p_f.add_argument("--field", required=True, help="Q, Fp, Qbar or Fpbar")
    p_f.set_defaults(func=_cmd_factors_count)

    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivclassError as exc:
        _emit(_error_payload(exc))
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
