"""Graded pieces of R = k[z, x_1..x_d]/(z^n - g) and of its ideals.

R is graded by deg x_i = n*c_i and deg z = m where m is the c-weighted
degree of g and gcd(m, n) = 1.  As a k[x]-module R is free on 1, z, ...,
z^{n-1}, and z^n = g rewrites every higher power of z.

Because gcd(m, n) = 1, each graded piece R_j is spanned by z^u mu for a
single z-exponent u: writing j = u m + v n with u in [0, n-1], the basis is
{z^u mu : mu monomial of c-degree v}.  All subspace computations in a fixed
degree j use those monomials as coordinates.

An ideal is checked degree by degree against the same generators, so the
data that depends only on the check is computed once: m^{-1} mod n when the
input is built, and each generator's degree and the terms of f and f*g in
`prepare_generators`.  Per degree, `ideal_graded_component` splits j once
and derives every generator's complementary split from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

from .errors import DegenerateInput
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
    # m^{-1} mod n, or None when gcd(m, n) != 1 (the hypothesis validator
    # rejects such inputs)
    m_inv: int | None = field(init=False, repr=False, compare=False)

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
        m_inv = pow(self.m, -1, self.n) if gcd(self.m, self.n) == 1 else None
        object.__setattr__(self, "m_inv", m_inv)

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


class IdealGenerator(NamedTuple):
    """A generator z^u f of an ideal, prepared once per check.

    f is a form of c-degree `cdeg`, so the generator has degree
    u*m + n*cdeg.  `terms` are the terms of f and `wrapped` those of f*g,
    used where the complementary z-power takes z^u past z^n; that never
    happens for u = 0, and then `wrapped` is empty.
    """

    u: int
    cdeg: int
    terms: tuple
    wrapped: tuple


def prepare_generators(
    context: HypersurfaceInput, generators: list[tuple[int, WPolynomial]]
) -> tuple[IdealGenerator, ...]:
    """Prepare generators (u, f), each z^u f, for `ideal_graded_component`.

    Here 0 <= u <= n (z itself is u = 1 also when n = 1) and f is a form in
    k[x]; a zero or inhomogeneous f raises ZeroPolynomial or
    InhomogeneousPolynomial.
    """
    return tuple(
        IdealGenerator(
            u,
            weighted_degree(f),
            tuple(f.terms.items()),
            tuple((f * context.g).terms.items()) if u else (),
        )
        for u, f in generators
    )


def ideal_graded_component(
    context: HypersurfaceInput, generators: tuple[IdealGenerator, ...], j: int
) -> Subspace | MonomialSpace:
    """Degree-j piece of the ideal spanned by prepared generators.

    The piece is spanned by generator times monomial basis of the
    complementary degree, with z^n rewritten as g.  With j = u m + v n, a
    generator z^{u_g} f of c-degree c has complement z^{u - u_g} times
    c-degree v - c when u_g <= u, and otherwise z^{u - u_g + n} times c-degree
    v - c - m, where z^{u_g} times that power is z^u g.  When every product is
    a monomial the piece is returned as a set of monomials, otherwise as a
    row space.  The monomial shifting is done on raw exponent tuples, kept
    flat because it dominates the graded verification loops.
    """
    split = context.degree_split(j)
    if split is None:
        return MonomialSpace(context.field)
    u, v = split
    unit_keys: set = set()
    multi_rows: list[dict] = []
    for u_g, cdeg, terms, wrapped in generators:
        if u_g <= u:
            v_b = v - cdeg
        else:
            v_b = v - cdeg - context.m
            terms = wrapped
        if v_b < 0:
            continue
        mus = enumerate_monomials_of_degree(context.ring, v_b)
        if not mus:
            continue
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
                {tuple(a + b for a, b in zip(fe, mu)): fc for fe, fc in terms}
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

