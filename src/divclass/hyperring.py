"""Graded pieces of R = k[z, x_1..x_d]/(z^n - g) and of its ideals.

R is graded by deg x_i = n*c_i and deg z = m where m is the c-weighted
degree of g and gcd(m, n) = 1.  As a k[x]-module R is free on 1, z, ...,
z^{n-1}, and z^n = g rewrites every higher power of z.

Because gcd(m, n) = 1, each graded piece R_j is spanned by z^u mu for a
single z-exponent u: writing j = u m + v n with u in [0, n-1], the basis is
{z^u mu : mu monomial of c-degree v}.  All subspace computations in a fixed
degree j use those monomials as coordinates, each labelled by the packed
integer code of its exponent vector (`wpoly.encode_monomial`), so that
multiplying by a monomial adds its code.

An ideal is checked degree by degree against the same generators, so the
data that depends only on the check is computed once: m^{-1} mod n when the
input is built, and the generator's plan in `prepare_generator`.  The
complementary z-power of a degree j = u m + v n depends on u only through
whether it takes the generator's z^{u_g} past z^n, so the plan keeps the
two cases, each as the c-degree shift of the complementary monomials and
either the exponent code of a one-term form or the prepared canonical
coded row (`Subspace.prepared_row`) of f or f*g.  Per degree,
`ideal_graded_component` does one split of j from m^{-1} mod n, one tuple
index into the plan and one key-set lookup in the cache of
`shifted_monomials`; a one-term form then costs one `Subspace.unit_space`
wrapper around that key set, and a longer one translates its row over the
key set through the translate cache of `Subspace.shifted`.  A piece with
no monomial costs nothing: it is the generator's one empty space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod
from typing import NamedTuple

from .errors import DegenerateInput, SearchSpaceTooLarge
from .linalg import MonomialSpace, Subspace
from .wpoly import (
    FactoredForm,
    WeightedRing,
    WPolynomial,
    coded_terms,
    count_monomials_of_degree,
    # unused here; perfbench/tracer.py expects this module to bind it
    enumerate_monomials_of_degree,  # noqa: F401
    monomial_counts,
    shifted_monomials,
    weighted_degree,
)


@dataclass(frozen=True)
class HypersurfaceInput:
    """The ring k[z, x]/(z^n - g) of a validated factorization g = h_1 ... h_r.

    `ring` and `g` are read off `factored.product` and `m`, the degree of g,
    is the sum of `factored.degrees`, once, so they cannot disagree with the
    factorization.  A form validated under the n = 1 rules is refused for
    n >= 2.  The gcd(m, n) = 1 gate lives in the hypothesis validator.
    """

    factored: FactoredForm
    n: int
    ring: WeightedRing = field(init=False)
    g: WPolynomial = field(init=False, repr=False)
    m: int = field(init=False)
    # m^{-1} mod n, or None when gcd(m, n) != 1 (the hypothesis validator
    # rejects such inputs)
    m_inv: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise DegenerateInput(f"n must be >= 1, got {self.n}")
        if self.n >= 2 and self.factored.tolerant:
            raise DegenerateInput(f"a factorization validated for n = 1 used with n = {self.n}")
        g = self.factored.product
        m = sum(self.factored.degrees)
        object.__setattr__(self, "ring", g.ring)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "m_inv", pow(m, -1, self.n) if gcd(m, self.n) == 1 else None)

    @property
    def field(self):
        return self.ring.field

    def default_depth(self) -> int:
        return max(200, 4 * self.m * self.n)

    def degree_split(self, j: int) -> tuple[int, int] | None:
        """Unique (u, v) with j = u*m + v*n, 0 <= u < n; None when v < 0."""
        if j < 0:
            return None
        if self.m_inv is None:
            raise DegenerateInput(f"gcd(m, n) = gcd({self.m}, {self.n}) != 1: no degree split")
        u = j * self.m_inv % self.n
        v = (j - u * self.m) // self.n
        if v < 0:
            return None
        return u, v


def graded_dim(context: HypersurfaceInput, j: int) -> int:
    split = context.degree_split(j)
    if split is None:
        return 0
    return count_monomials_of_degree(context.ring, split[1])


def graded_dims(context: HypersurfaceInput, depth: int) -> list[int]:
    """dim R_j for every j <= depth, the `graded_dim` of each j.

    Every j = u m + v n <= depth has v <= V = depth // n, so all of them read
    one table of monomial counts with V + 1 entries (`monomial_counts`):
    the degrees u m + v n of one u < n take its first entries, one slice
    per u, and a degree with no such split stays 0.
    """
    if depth >= 0 and context.m_inv is None:
        context.degree_split(0)  # raises DegenerateInput: no degree split
    n, m = context.n, context.m
    counts = monomial_counts(context.ring, depth // n)
    dims = [0] * (depth + 1)
    for start in range(0, min(n * m, depth + 1), m):
        dims[start::n] = counts[: (depth - start) // n + 1]
    return dims


class IdealGenerator(NamedTuple):
    """A generator z^u f of an ideal, prepared once per check.

    f is a form of c-degree c, so the generator has degree u*m + n*c, and
    `row` is the prepared row of f (`Subspace.prepared_row`: a frozenset of
    the (exponent code, coefficient) items of the canonical coded row).  `plan`
    is the work of `ideal_graded_component` at a degree j = u' m + v n,
    which depends on u' only through u' >= u: `plan[u' >= u]` =
    (shift, offset, row').  With u' >= u the form is f; with u' < u the
    complementary z-power takes z^u past z^n, and the form is f*g, of
    c-degree c + m.  shift is the form's c-degree, so the complementary
    monomials have c-degree v - shift.  A one-term form has row' None and
    its exponent code as offset (its canonical coefficient is 1); a longer
    one has its prepared row and a zero offset.  For u = 0 the case u' < u never
    occurs, and `plan[0]` is None.  Two entries serve every u' in [0, n),
    where one per u' would hold n entries, and n passes the work bound of a
    shallow walk far above 10^5.  `empty` is the one empty `MonomialSpace`
    over the job's field that every empty piece of the generator's ideal
    is; a `MonomialSpace` is never changed once built, so the pieces of
    all degrees may share it.
    """

    u: int
    row: frozenset
    plan: tuple
    empty: MonomialSpace


def prepare_generator(context: HypersurfaceInput, u: int, f: WPolynomial) -> IdealGenerator:
    """Prepare the generator z^u f for `ideal_graded_component`.

    Here 0 <= u <= n (z itself is u = 1 also when n = 1) and f is a form in
    k[x]; a zero or inhomogeneous f raises ZeroPolynomial or
    InhomogeneousPolynomial.  The generator's empty piece is built here,
    once.
    """
    field = context.field
    cdeg = weighted_degree(f)
    row = Subspace.prepared_row(field, coded_terms(f.terms))

    def step(shift: int, prepared: frozenset) -> tuple:
        if len(prepared) == 1:
            ((code, _),) = prepared
            return shift, code, None
        return shift, 0, prepared

    wrapped = None
    if u:
        fg = coded_terms((f * context.g).terms)
        wrapped = step(cdeg + context.m, Subspace.prepared_row(field, fg))
    return IdealGenerator(u, row, (wrapped, step(cdeg, row)), MonomialSpace(field))


def ideal_graded_component(
    context: HypersurfaceInput, generator: IdealGenerator, j: int
) -> Subspace | MonomialSpace:
    """Degree-j piece of the principal ideal of a prepared generator.

    The piece is spanned by the generator times the monomial basis of the
    complementary degree, with z^n rewritten as g.  With j = u m + v n, a
    generator z^{u_g} f of c-degree c has complement z^{u - u_g} times
    c-degree v - c when u_g <= u, and otherwise z^{u - u_g + n} times c-degree
    v - c - m, where z^{u_g} times that power is z^u g.  The generator's
    plan holds both cases (`IdealGenerator`).

    The translates of the generator's one form by the complementary
    monomials span the piece.  A one-term form gives a set of monomials
    (`shifted_monomials` at the form's exponent code, a cached translate); a
    longer form gives rows whose pivots are the translates of its leading
    exponent (`Subspace.shifted` on the prepared row), already in echelon
    form.  Its key set is `shifted_monomials` at a zero offset, the very set
    a module piece of `sections` with the same degree and no offset
    translates by, so equal translates of both sides share one entry of the
    translate cache of `Subspace.shifted`.  The piece of an ideal with
    several generators is the `plus` of their pieces.

    An empty piece (no degree split, v < 0, no complementary degree, or no
    monomial in it) is the generator's one empty space, `generator.empty`,
    not a new one.
    """
    m_inv = context.m_inv
    if m_inv is None:
        # no split: `degree_split` raises DegenerateInput (None for j < 0)
        context.degree_split(j)
        return generator.empty
    # the split of `degree_split`; v < 0 also for every j < 0, as u >= 0
    n, m = context.n, context.m
    u = j * m_inv % n
    v = (j - u * m) // n
    if v < 0:
        return generator.empty
    shift, offset, row = generator.plan[u >= generator.u]
    v -= shift
    if v < 0:
        return generator.empty
    ring = context.ring
    keys = shifted_monomials(ring.weights, v, offset)
    if not keys:
        return generator.empty
    if row is None:
        return Subspace.unit_space(ring.field, keys)
    return Subspace.shifted(ring.field, row, keys)


# The largest `graded_work_bound` that a walk over the degrees may have:
# `verify` and `hilbert` reject a larger depth before walking any degree.
MAX_GRADED_WORK = 10**7


def graded_work_bound(context: HypersurfaceInput, depth: int, pieces: bool = True) -> int:
    """Upper bound on the work of a walk over the degrees j <= depth.

    With V = depth // n, each j = u m + v n has u < n and v <= V, and
    distinct j give distinct (u, v).  Without `pieces` this is what
    `hilbert` does: one denumerant table of d rows of length V + 1 for all
    the direct counts (`graded_dims`), one split per degree and the d + 1
    prefix sums of `hilbert_coefficients` over the depth + 1 coefficients,
    d * (V + 1) + (d + 2) * (depth + 1) in all.  With `pieces`, as in
    `verify`, each degree is counted as one step and one direct count from
    a table of d rows of length v + 1, at most 1 + d * (V + 1), and the
    graded pieces cost work that grows with their dimension.  dim R_j
    counts the monomials of c-degree v, whose exponents satisfy
    a_i <= V // c_i, so the sum of the dim R_j is at most
    n * prod_i (V // c_i + 1).  Nothing of size depth is allocated.

    The bound counts piece dimensions, not the row reductions of pieces
    with general rows.  `verify` on x1, x2, x1^2 + x2^2 with n = 3 over Q,
    which the bound accepts up to depth 3160, took 0.03, 0.09, 0.3, 1.4 and
    12 s at depth 200, 400, 800, 1600 and 3160 (Python 3.11, 2 cores, one
    in-process `cli.main` call each), about depth^2 up to 1600; with the
    two forms x1^2 + x2^2 and x1^2 + 2 x2^2, whose modules meet by
    Zassenhaus reduction, 0.09 and 0.46 s at depth 200 and 400.
    """
    V = depth // context.n
    weights = context.ring.weights
    d = len(weights)
    if not pieces:
        return d * (V + 1) + (d + 2) * (depth + 1)
    return (depth + 1) * (1 + d * (V + 1)) + context.n * prod(V // c + 1 for c in weights)


def check_graded_work(context: HypersurfaceInput, depth: int, pieces: bool = True) -> None:
    """Raise SearchSpaceTooLarge when walking the degrees up to depth is too much."""
    work = graded_work_bound(context, depth, pieces)
    if work > MAX_GRADED_WORK:
        raise SearchSpaceTooLarge(
            f"depth {depth} gives an estimated graded work of {work}, "
            f"above the limit {MAX_GRADED_WORK}"
        )


def hilbert_coefficients(context: HypersurfaceInput, depth: int) -> list[int]:
    """Coefficients of the Hilbert series of R up to degree `depth`.

    The series is (1 - t^{mn}) / ((1 - t^m) * prod_i (1 - t^{n c_i})), from
    the free k[x]-module decomposition R = k[x] + k[x]z + ... with deg z = m.
    Division by (1 - t^k) is a stride-k prefix sum.
    """
    if depth < 0:
        raise DegenerateInput("depth must be nonnegative")
    n, m = context.n, context.m
    series = [0] * (depth + 1)
    series[0] = 1
    if m * n <= depth:
        series[m * n] -= 1
    strides = [m] + [n * c for c in context.ring.weights]
    for k in strides:
        for i in range(k, depth + 1):
            series[i] += series[i - k]
    return series

