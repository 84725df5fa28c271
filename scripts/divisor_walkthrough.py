"""Print the divisor bookkeeping behind one job, degree by degree.

Shows the Bezout data, the canonical divisor of degree 1/n, and for each
graded piece the split j = u*m + v*n, the rounded-down multiple of the
divisor, and the matching section and ring dimensions.  A job the pipeline
rejects gets the error report of `divclass classgroup` and its exit code.
"""

import argparse
import sys

from divclass.cli import JobFile, _emit, _error_payload, _exit_code, _run_pipeline
from divclass.errors import DivclassError
from divclass.hyperring import graded_dim
from divclass.sections import h0_basis


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("job", help="path to a JSON job file")
    ap.add_argument("--depth", type=int, default=24)
    args = ap.parse_args()

    try:
        result = _run_pipeline(JobFile.load(args.job))
    except DivclassError as exc:
        _emit(_error_payload(exc))
        sys.exit(_exit_code(exc))
    dctx = result.context
    inp = dctx.input
    print(
        f"group {result.group}   n = {inp.n}   m = {inp.m}"
        f"   a = {dctx.bez.a}   b = {dctx.bez.b}   s = {dctx.svec}"
    )
    print(f"D = {dctx.D}")
    print()
    print(f"{'j':>4} {'u':>4} {'v':>4}  {'floor(jD)':<28} {'h0':>4} {'dim R_j':>8}")
    zero = dctx.zero_divisor()
    for j in range(args.depth + 1):
        E = dctx.floor_shift(zero, j)
        us, vs = inp.degree_split(j) or ("-", "-")
        h0 = h0_basis(dctx, E).dim
        print(f"{j:>4} {us:>4} {vs:>4}  {str(E):<28} {h0:>4} {graded_dim(inp, j):>8}")


if __name__ == "__main__":
    main()
