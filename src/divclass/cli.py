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
import os
import sys
import time
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii

from .classgroup import (
    ClassGroupResult,
    compute_class_group,
    validate_hypotheses,
    x0_extension_input,
    x0_extension_mode,
)
from .errors import (
    DegenerateInput,
    DivclassError,
    InternalInconsistency,
    JobFileError,
    PolynomialSyntaxError,
)
from .fields import FieldSpec
from .hyperring import (
    HypersurfaceInput,
    check_graded_work,
    graded_dims,
    hilbert_coefficients,
)
from .parser import NAME, parse_polynomial
from .sections import verify_section_ring
from .wpoly import (
    WeightedRing,
    WPolynomial,
    count_factors_one_plus_tc,
    validate_factorization,
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
        version = data["schema_version"]
        if type(version) is not int or version != SCHEMA_VERSION:
            raise JobFileError(
                f"unsupported schema_version {version!r}; "
                f"this build reads version {SCHEMA_VERSION}"
            )
        field = FieldSpec.parse(_expect(data, "field", str))
        n = _expect(data, "n", int)
        variables = _string_list(data, "variables")
        for name in variables:
            _check_name("variables", name)
        weights = tuple(_int_list(data, "weights"))
        factors = _string_list(data, "factors")
        if not factors:
            raise JobFileError("factors must be a non-empty list")
        g = data.get("g")
        if g is not None and not isinstance(g, str):
            raise JobFileError("g must be a string")
        x0 = data.get("x0")
        if x0 is not None:
            if not isinstance(x0, str):
                raise JobFileError("x0 must be a string")
            _check_name("x0", x0)
        assume_normal = data.get("assume_normal", False)
        if not isinstance(assume_normal, bool):
            raise JobFileError("assume_normal must be a boolean")
        depth = data.get("verify_depth")
        if depth is not None and (type(depth) is not int or depth < 0):
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


def _check_name(key: str, name: str) -> None:
    """A name the parser reads in a factor, and not z, which reports name."""
    if not NAME.fullmatch(name) or name == "z":
        raise JobFileError(f"{key}: {name!r} is not a variable name ({NAME.pattern}, not z)")


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

def _job_polynomials(
    job: JobFile,
) -> tuple[WeightedRing, list[WPolynomial], WPolynomial | None]:
    """The job's ring, its parsed factors and its declared g (None without g)."""
    ring = WeightedRing(job.variables, job.weights, job.field)
    factors = [parse_polynomial(text, ring) for text in job.factors]
    declared = parse_polynomial(job.g, ring) if job.g is not None else None
    return ring, factors, declared


def _run_pipeline(job: JobFile) -> ClassGroupResult:
    ring, factors, declared = _job_polynomials(job)
    if job.x0 is not None:
        return x0_extension_mode(
            ring, job.n, factors, x0=job.x0, assume_normal=job.assume_normal, g=declared
        )
    factored = validate_factorization(factors, ring, job.n, declared)
    return compute_class_group(
        HypersurfaceInput(factored, job.n), assume_normal=job.assume_normal
    )


def _result_payload(result: ClassGroupResult) -> dict:
    report = result.report
    inp = result.context.input
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": result.mode,
        "hypotheses": {
            "variables": list(inp.ring.variables),
            "weights": list(inp.ring.weights),
            "n": inp.n,
            "m": inp.m,
            "gcd_m_n": 1,  # validate_hypotheses rejects any other gcd
            "factorization": inp.factored.exactness,
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


def _resolve_depth(inp: HypersurfaceInput, depth: int | None, pieces: bool) -> int:
    """The largest degree to check: the one asked for, else the input's default.

    A depth whose estimated graded work is above `MAX_GRADED_WORK` raises
    SearchSpaceTooLarge here, before any degree is walked; `pieces` says
    whether the graded pieces are built (`verify`) or only counted
    (`hilbert`).  The default depth is bounded like any other.
    """
    if depth is None:
        depth = inp.default_depth()
    elif depth < 0:
        raise DegenerateInput("depth must be nonnegative")
    check_graded_work(inp, depth, pieces)
    return depth


def _verification_payload(result: ClassGroupResult, job: JobFile) -> dict:
    """The verification blocks; `status` is "fail" exactly when a block says "fail"."""
    dctx = result.context
    inp = dctx.input
    depth = _resolve_depth(inp, job.verify_depth, pieces=True)
    section = verify_section_ring(dctx, depth)
    rows = zip(hilbert_coefficients(inp, depth), graded_dims(inp, depth))
    hilbert_mismatch = next(
        (j for j, (series, direct) in enumerate(rows) if series != direct), None
    )
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
        "oracle": _oracle_payload(result, depth) if job.oracle else None,
    }
    blocks = (payload["section_ring"], payload["hilbert"], payload["oracle"])
    failed = any(block is not None and block["status"] == "fail" for block in blocks)
    payload["status"] = "fail" if failed else "pass"
    return payload


def _oracle_payload(result: ClassGroupResult, depth: int) -> dict:
    from . import oracle

    dctx = result.context
    inp = dctx.input
    if result.splits_over_closure:
        return {
            "status": "skipped",
            "note": "closure components have no exact representation",
        }
    if inp.n == 1:
        return {"status": "skipped", "note": "n = 1, nothing to verify"}
    outcomes, relations = oracle.verify_graded(dctx, depth)
    ideals = [
        {
            "t": outcome.t,
            "status": "pass" if outcome.ok else "fail",
            "failures": list(outcome.failures),
        }
        for outcome in outcomes
    ]
    ok = all(outcome.ok for outcome in outcomes) and relations.ok
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
        ok = ok and consistent
    payload["status"] = "pass" if ok else "fail"
    return payload


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
                return payload, 1
        return payload, 0
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
    """Print a report as `json.dumps(payload, sort_keys=True, indent=2)`
    would, with ints of |v| >= 2^53 as decimal strings (`_write_json`)."""
    out = []
    _write_json(payload, "", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _write_json(value, indent: str, out: list) -> None:
    """Append the text of `value` in the layout of `json.dumps(value,
    sort_keys=True, indent=2)`, byte for byte, to `out`.

    `indent` is the indentation of the line the value starts on.  The types
    are those of `json.dumps`, tested in its order; keys must be strings, as
    in every report.  One rule departs from `json.dumps`: an int with
    |v| >= 2^53 is written as its decimal string, so a reader that parses
    numbers as doubles sees an exact int or a string, never a rounded
    number.  Written out here because `json.dumps` with an indent runs the
    pure-Python encoder, whose closures leave reference cycles behind on
    every call.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        text = int.__repr__(value)
        out.append(text if -(2**53) < value < 2**53 else f'"{text}"')
    elif isinstance(value, float):
        out.append(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_job(args) -> int:
    """classgroup or verify: run the job, print its report and the time taken."""
    verify = args.command == "verify"
    job = JobFile.load(args.job)
    if verify and args.depth is not None:
        job = dataclasses.replace(job, verify_depth=args.depth)
    started = time.perf_counter()
    payload, code = run_job(job, verify=verify)
    _emit(payload)
    print(f"{args.command} finished in {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


# `hilbert` writes its table this many rows at a time, so that it holds one
# chunk of text beside its two columns instead of the whole table.
HILBERT_CHUNK_ROWS = 4096


def _cmd_hilbert(args) -> int:
    # the input of `_run_pipeline`, through the same gates, with no class group
    job = JobFile.load(args.job)
    ring, factors, declared = _job_polynomials(job)
    if job.x0 is not None:
        inp = x0_extension_input(ring, job.n, factors, job.x0, declared)[0]
    else:
        inp = HypersurfaceInput(validate_factorization(factors, ring, job.n, declared), job.n)
    validate_hypotheses(inp, assume_normal=job.assume_normal)
    depth = _resolve_depth(inp, args.depth, pieces=False)
    series, direct = hilbert_coefficients(inp, depth), graded_dims(inp, depth)
    lines = (
        f"{j:7d} {s:8d} {d:8d}{'' if s == d else '   MISMATCH'}\n"
        for j, (s, d) in enumerate(zip(series, direct))
    )
    try:
        sys.stdout.write("      j   series   direct\n")
        while chunk := "".join(islice(lines, HILBERT_CHUNK_ROWS)):
            sys.stdout.write(chunk)
    except BrokenPipeError:
        # the reader has gone: drop the rest of the table and point stdout
        # at the null device, where the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if series == direct else 1


def _cmd_factors_count(args) -> int:
    count = count_factors_one_plus_tc(args.c, FieldSpec.parse(args.field))
    sys.stdout.write(f"{count}\n")
    return 0


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The `divclass` parser, built on first use and shared by later calls.

    Parsing keeps no state on the parser: each `parse_args` returns a new
    namespace, so one parser serves every `main` call in a process.  Its
    `subcommands` maps each subcommand to its parser, which sets `command`
    itself, so that `main` can parse with that parser alone.
    """
    parser = argparse.ArgumentParser(
        prog="divclass",
        description="Divisor class groups of graded hypersurfaces z^n = g",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cg = sub.add_parser("classgroup", help="compute the class group for a job file")
    p_cg.add_argument("job", help="path to a JSON job file")
    p_cg.set_defaults(command="classgroup", func=_cmd_job)

    p_v = sub.add_parser("verify", help="compute and run the verification suite")
    p_v.add_argument("job", help="path to a JSON job file")
    p_v.add_argument("--depth", type=int, default=None, help="override verification depth")
    p_v.set_defaults(command="verify", func=_cmd_job)

    p_h = sub.add_parser("hilbert", help="print Hilbert coefficients, both methods")
    p_h.add_argument("job", help="path to a JSON job file")
    p_h.add_argument("--depth", type=int, default=None, help="largest degree to print")
    p_h.set_defaults(command="hilbert", func=_cmd_hilbert)

    p_f = sub.add_parser(
        "factors-count", help="number of irreducible factors of 1 + t^c"
    )
    p_f.add_argument("--c", type=int, required=True)
    p_f.add_argument("--field", required=True, help="Q, Fp, Qbar or Fpbar")
    p_f.set_defaults(command="factors-count", func=_cmd_factors_count)

    parser.subcommands = sub.choices
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # one parse, by the parser of the subcommand argv[0] names when it takes
    # every argument; else by the top parser, for its usage texts and errors
    sub = parser.subcommands.get(argv[0]) if argv else None
    args, extra = sub.parse_known_args(argv[1:]) if sub else (None, argv)
    if args is None or extra:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivclassError as exc:
        _emit(_error_payload(exc))
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
