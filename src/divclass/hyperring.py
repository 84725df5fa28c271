"""Arithmetic and graded linear algebra in R = k[z, x_1..x_d]/(z^n - g).

R is graded by deg x_i = n*c_i and deg z = m where m is the c-weighted
degree of g and gcd(m, n) = 1.  Elements are kept in normal form f_0 + f_1 z
+ ... + f_{n-1} z^{n-1} with f_u in k[x]; the defining relation is monic in
z, so reduction never divides.

Because gcd(m, n) = 1, each graded piece R_j is spanned by z^u mu for a
single z-exponent u: writing j = u m + v n with u in [0, n-1], the basis is
{z^u mu : mu monomial of c-degree v}.  All subspace computations in a fixed
degree j use those monomials as coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateInput, InhomogeneousPolynomial, ZeroPolynomial
from .linalg import MonomialSpace, Subspace
from .wpoly import (
    FactoredForm,
    WeightedRing,
    WPolynomial,
    count_monomials_of_degree,
    enumerate_monomials_of_degree,
    weighted_degree,
)


@dataclass(frozen=True)
class HypersurfaceInput:
    """A hypersurface ring k[z, x]/(z^n - g) with a validated factorization.

    Weight normalization and the gcd(m, n) = 1 gate live in the hypothesis
    validator; this type only guarantees internal shape consistency.
    """

    ring: WeightedRing
    n: int
    g: WPolynomial
    factored: FactoredForm
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise DegenerateInput(f"n must be >= 1, got {self.n}")
        if self.g.ring != self.ring:
            raise DegenerateInput("g does not live in the declared ring")
        if weighted_degree(self.g) != self.m:
            raise DegenerateInput(
                f"declared degree {self.m} but g has degree {weighted_degree(self.g)}"
            )
        if self.factored.product != self.g:
            raise DegenerateInput("factorization does not multiply to g")

    @property
    def field(self):
        return self.ring.field

    def default_depth(self) -> int:
        return max(200, 4 * self.m * self.n)

    def degree_split(self, j: int) -> tuple[int, int] | None:
        """Unique (u, v) with j = u*m + v*n, 0 <= u < n; None when v < 0."""
        if j < 0:
            return None
        if self.n == 1:
            return 0, j
        u = j * pow(self.m, -1, self.n) % self.n
        v = (j - u * self.m) // self.n
        if v < 0:
            return None
        return u, v

    def monomial_degree(self, u: int, exps: tuple[int, ...]) -> int:
        cdeg = sum(e * c for e, c in zip(exps, self.ring.weights))
        return u * self.m + self.n * cdeg


class RingElement:
    """Normal form sum of f_u * z^u for u = 0..n-1 with f_u in k[x]."""

    __slots__ = ("context", "zparts")

    def __init__(self, context: HypersurfaceInput, zparts):
        zparts = tuple(zparts)
        if len(zparts) != context.n:
            raise DegenerateInput(f"expected {context.n} z-coefficients")
        for f in zparts:
            if f.ring != context.ring:
                raise DegenerateInput("z-coefficient in the wrong ring")
        self.context = context
        self.zparts = zparts

    @staticmethod
    def zero(context: HypersurfaceInput) -> "RingElement":
        return RingElement(context, [WPolynomial.zero(context.ring)] * context.n)

    @staticmethod
    def from_poly(context: HypersurfaceInput, f: WPolynomial) -> "RingElement":
        parts = [WPolynomial.zero(context.ring)] * context.n
        parts[0] = f
        return RingElement(context, parts)

    @staticmethod
    def z_power(context: HypersurfaceInput, u: int) -> "RingElement":
        if not 0 <= u < context.n:
            raise DegenerateInput(f"z-exponent {u} outside [0, {context.n - 1}]")
        parts = [WPolynomial.zero(context.ring)] * context.n
        parts[u] = WPolynomial.one(context.ring)
        return RingElement(context, parts)

    @staticmethod
    def monomial(context: HypersurfaceInput, u: int, exps, coeff=1) -> "RingElement":
        parts = [WPolynomial.zero(context.ring)] * context.n
        parts[u] = WPolynomial.monomial(context.ring, exps, coeff)
        return RingElement(context, parts)

    @property
    def is_zero(self) -> bool:
        return all(f.is_zero for f in self.zparts)

    def _same_context(self, other: "RingElement"):
        if self.context != other.context:
            raise DegenerateInput("elements from different hypersurface rings")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._same_context(other)
        return RingElement(
            self.context, [a + b for a, b in zip(self.zparts, other.zparts)]
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._same_context(other)
        return RingElement(
            self.context, [a - b for a, b in zip(self.zparts, other.zparts)]
        )

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._same_context(other)
        ctx = self.context
        acc = [WPolynomial.zero(ctx.ring) for _ in range(ctx.n)]
        for u1, f1 in enumerate(self.zparts):
            if f1.is_zero:
                continue
            for u2, f2 in enumerate(other.zparts):
                if f2.is_zero:
                    continue
                prod = f1 * f2
                u = u1 + u2
                if u >= ctx.n:
                    acc[u - ctx.n] = acc[u - ctx.n] + prod * ctx.g
                else:
                    acc[u] = acc[u] + prod
        return RingElement(ctx, acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.context == other.context
            and self.zparts == other.zparts
        )

    def __repr__(self) -> str:
        body = " + ".join(
            f"({f.to_string()})*z^{u}" for u, f in enumerate(self.zparts) if not f.is_zero
        )
        return f"RingElement({body or '0'})"

    def homogeneous_degree(self) -> int:
        """Common R-degree of all terms; errors on zero or mixed degrees."""
        degs = set()
        ctx = self.context
        for u, f in enumerate(self.zparts):
            for exps in f.terms:
                degs.add(ctx.monomial_degree(u, exps))
        if not degs:
            raise ZeroPolynomial("zero element has no degree")
        if len(degs) != 1:
            raise InhomogeneousPolynomial(f"mixed degrees {sorted(degs)}")
        return degs.pop()


def graded_dim(context: HypersurfaceInput, j: int) -> int:
    split = context.degree_split(j)
    if split is None:
        return 0
    return count_monomials_of_degree(context.ring, split[1])


def ideal_graded_component(
    context: HypersurfaceInput, generators: list[RingElement], j: int
) -> Subspace | MonomialSpace:
    """Degree-j piece of the ideal the generators span.

    The piece is spanned by generator times monomial basis of the
    complementary degree.  When every such product is a monomial the piece
    is returned as a set of monomials, otherwise as a row space.  The
    monomial shifting is done on raw exponent dicts; this is exactly
    RingElement multiplication specialized to a monomial right factor, kept
    flat because it dominates the graded verification loops.
    """
    if context.degree_split(j) is None:
        return MonomialSpace(context.field)
    unit_keys: set = set()
    multi_rows: list[dict] = []
    for gen in generators:
        e = gen.homogeneous_degree()
        bsplit = context.degree_split(j - e)
        if bsplit is None:
            continue
        u_b, v_b = bsplit
        mus = enumerate_monomials_of_degree(context.ring, v_b)
        if not mus:
            continue
        for u_g, f in enumerate(gen.zparts):
            if f.is_zero:
                continue
            poly = f * context.g if u_g + u_b >= context.n else f
            terms = list(poly.terms.items())
            if len(terms) == 1:
                ((fe, _),) = terms
                if not any(fe):
                    unit_keys.update(mus)
                else:
                    unit_keys.update(
                        zip(*([mu[i] + b for mu in mus] for i, b in enumerate(fe)))
                    )
                continue
            for mu in mus:
                multi_rows.append(
                    {
                        tuple(a + b for a, b in zip(fe, mu)): fc
                        for fe, fc in terms
                    }
                )
    space = Subspace.unit_space(context.field, unit_keys)
    if not multi_rows:
        return space
    space = space.as_subspace()
    for row in multi_rows:
        space.insert(row)
    return space


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

