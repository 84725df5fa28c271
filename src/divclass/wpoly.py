"""Weighted multivariate polynomials with exact coefficients.

A WPolynomial is a sparse map from exponent vectors to nonzero field
coefficients.  The ring fixes an ordered list of variable names, a positive
integer weight per variable and a FieldSpec; degrees are always measured
against those weights ("c-degree").

Alongside the arithmetic this module owns the homogeneity services, monomial
enumeration by weighted degree, the validator for user-supplied
factorizations, and the count of irreducible factors of 1 + t^c over the
supported fields.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

from . import univariate
from .errors import (
    DegenerateInput,
    InhomogeneousFactor,
    InhomogeneousPolynomial,
    InternalInconsistency,
    NotIrreducible,
    ProductMismatch,
    RepeatedFactor,
    ZeroPolynomial,
)
from .exactmath import euler_phi, divisors, multiplicative_order
from .fields import FieldSpec


class RepeatedFactorsWarning(UserWarning):
    """1 + t^c has repeated roots in characteristic p when p divides c."""


@dataclass(frozen=True)
class WeightedRing:
    variables: tuple[str, ...]
    weights: tuple[int, ...]
    field: FieldSpec

    def __post_init__(self):
        if not self.variables:
            raise DegenerateInput("a weighted ring needs at least one variable")
        if len(self.variables) != len(self.weights):
            raise DegenerateInput("variables and weights must have the same length")
        if len(set(self.variables)) != len(self.variables):
            raise DegenerateInput("variable names must be distinct")
        for w in self.weights:
            if w < 1:
                raise DegenerateInput(f"weights must be positive, got {w}")

    @property
    def d(self) -> int:
        return len(self.variables)

    def variable_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise DegenerateInput(f"no variable named {name!r} in {self.variables}") from None


class WPolynomial:
    """Sparse polynomial: dict from exponent tuples to nonzero coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: WeightedRing, terms: dict):
        self.ring = ring
        clean = {}
        for exps, c in terms.items():
            if len(exps) != ring.d:
                raise DegenerateInput("exponent vector length does not match ring")
            if any(e < 0 for e in exps):
                raise DegenerateInput(f"negative exponent in {exps}")
            c = ring.field.canon(c)
            if not ring.field.is_zero(c):
                clean[tuple(exps)] = c
        self.terms = clean

    # constructors

    @staticmethod
    def zero(ring: WeightedRing) -> "WPolynomial":
        return WPolynomial(ring, {})

    @staticmethod
    def constant(ring: WeightedRing, c) -> "WPolynomial":
        return WPolynomial(ring, {(0,) * ring.d: c})

    @staticmethod
    def one(ring: WeightedRing) -> "WPolynomial":
        return WPolynomial.constant(ring, 1)

    @staticmethod
    def variable(ring: WeightedRing, i: int) -> "WPolynomial":
        exps = [0] * ring.d
        exps[i] = 1
        return WPolynomial(ring, {tuple(exps): 1})

    @staticmethod
    def monomial(ring: WeightedRing, exps, c=1) -> "WPolynomial":
        return WPolynomial(ring, {tuple(exps): c})

    def with_ring(self, ring: WeightedRing) -> "WPolynomial":
        """Same terms, different ring (used when weights are renormalized)."""
        return WPolynomial(ring, dict(self.terms))

    # queries

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def leading(self):
        """Lexicographically largest exponent tuple and its coefficient."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        exps = max(self.terms)
        return exps, self.terms[exps]

    def min_exponents(self) -> tuple[int, ...]:
        """Per-variable minimum exponent over all terms (divisibility witness)."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial")
        mins = [min(exps[i] for exps in self.terms) for i in range(self.ring.d)]
        return tuple(mins)

    def support_variables(self) -> tuple[int, ...]:
        return tuple(
            i for i in range(self.ring.d) if any(exps[i] for exps in self.terms)
        )

    def as_variable(self) -> int | None:
        """Index i when the polynomial is a scalar multiple of x_i, else None."""
        if len(self.terms) != 1:
            return None
        (exps,) = self.terms
        if sum(exps) == 1:
            return exps.index(1)
        return None

    # arithmetic

    def _same_ring(self, other: "WPolynomial"):
        if self.ring != other.ring:
            raise DegenerateInput("polynomials from different rings")

    def __add__(self, other: "WPolynomial") -> "WPolynomial":
        self._same_ring(other)
        f = self.ring.field
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = f.add(out.get(exps, 0), c)
        return WPolynomial(self.ring, out)

    def __neg__(self) -> "WPolynomial":
        f = self.ring.field
        return WPolynomial(self.ring, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "WPolynomial") -> "WPolynomial":
        return self + (-other)

    def __mul__(self, other: "WPolynomial") -> "WPolynomial":
        self._same_ring(other)
        f = self.ring.field
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = f.add(out.get(key, 0), f.mul(c1, c2))
        return WPolynomial(self.ring, out)

    def scale(self, c) -> "WPolynomial":
        f = self.ring.field
        return WPolynomial(self.ring, {e: f.mul(v, c) for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "WPolynomial":
        if k < 0:
            raise DegenerateInput("negative polynomial power")
        result = WPolynomial.one(self.ring)
        acc = self
        while k:
            if k & 1:
                result = result * acc
            acc = acc * acc
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WPolynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"WPolynomial({self.to_string()!r})"

    def to_string(self) -> str:
        """Canonical rendering; round-trips through the expression parser."""
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            factors = []
            for name, e in zip(self.ring.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            pieces.append((c, body))
        out = []
        for idx, (c, body) in enumerate(pieces):
            neg = _coeff_is_negative(c)
            mag = -c if neg else c
            coeff_str = "" if (mag == 1 and body) else str(mag)
            term = coeff_str + ("*" if coeff_str and body else "") + (body or "")
            if idx == 0:
                out.append(("-" if neg else "") + term)
            else:
                out.append((" - " if neg else " + ") + term)
        return "".join(out)


def _coeff_is_negative(c) -> bool:
    try:
        return c < 0
    except TypeError:
        return False


def weighted_degree(f: WPolynomial) -> int:
    """Common weighted degree of all terms; errors on zero or mixed degrees."""
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no weighted degree")
    degs = {sum(e * c for e, c in zip(exps, f.ring.weights)) for exps in f.terms}
    if len(degs) != 1:
        raise InhomogeneousPolynomial(
            f"mixed weighted degrees {sorted(degs)} for weights {f.ring.weights}"
        )
    return degs.pop()


def is_homogeneous(f: WPolynomial) -> bool:
    try:
        weighted_degree(f)
        return True
    except (ZeroPolynomial, InhomogeneousPolynomial):
        return False


def normalize_weights(
    ring: WeightedRing, degrees: tuple[int, ...] = ()
) -> tuple[WeightedRing, tuple[int, ...]]:
    """Divide the weights by their gcd; rescale the supplied degrees alongside."""
    g = 0
    for w in ring.weights:
        g = gcd(g, w)
    if g == 1:
        return ring, tuple(degrees)
    for m in degrees:
        if m % g != 0:
            raise InternalInconsistency(
                f"degree {m} not divisible by weight gcd {g}; homogeneous degrees always are"
            )
    new_ring = WeightedRing(
        ring.variables, tuple(w // g for w in ring.weights), ring.field
    )
    return new_ring, tuple(m // g for m in degrees)


# Bound on each degree cache below: a long-running process verifies many rings
# and degrees, and unbounded caches would keep every enumeration alive.
_CACHE_SIZE = 1024


@lru_cache(maxsize=_CACHE_SIZE)
def _denumerant_table(weights: tuple[int, ...], v: int) -> tuple[int, ...]:
    table = [0] * (v + 1)
    table[0] = 1
    for c in weights:
        for i in range(c, v + 1):
            table[i] += table[i - c]
    return tuple(table)


def count_monomials_of_degree(ring: WeightedRing, v: int) -> int:
    """Number of exponent vectors with weighted degree exactly v."""
    if v < 0:
        return 0
    return _denumerant_table(ring.weights, v)[v]


@lru_cache(maxsize=_CACHE_SIZE)
def _enumerate(weights: tuple[int, ...], v: int) -> tuple[tuple[int, ...], ...]:
    if v < 0:
        return ()
    if not weights:
        return ((),) if v == 0 else ()
    c = weights[0]
    out = []
    for a in range(v // c, -1, -1):
        for rest in _enumerate(weights[1:], v - a * c):
            out.append((a,) + rest)
    return tuple(out)


def enumerate_monomials_of_degree(ring: WeightedRing, v: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of weighted degree v, lexicographically descending."""
    return _enumerate(ring.weights, v)


# ---------------------------------------------------------------------------
# factor counting for 1 + t^c

def count_factors_one_plus_tc(c: int, field: FieldSpec) -> int:
    """Number of distinct irreducible factors of 1 + t^c over the field.

    Over Q these are the cyclotomic polynomials Phi_e for e | 2c, e not | c.
    Over F_p with p coprime to 2c the Phi_e split further into phi(e)/ord_e(p)
    factors each.  When p divides c only c' = c/p^k distinct roots remain and
    a RepeatedFactorsWarning is emitted.  Over an algebraically closed field
    the count is the number of distinct roots.
    """
    if c < 1:
        raise DegenerateInput(f"c must be >= 1, got {c}")
    p = field.char
    if p == 0:
        if field.closed:
            return c
        return sum(1 for e in divisors(2 * c) if c % e != 0)
    k = 0
    cp = c
    while cp % p == 0:
        cp //= p
        k += 1
    if k:
        warnings.warn(
            f"1 + t^{c} = (1 + t^{cp})^{p**k} in characteristic {p}; "
            "counting the distinct factors",
            RepeatedFactorsWarning,
            stacklevel=2,
        )
    if field.closed:
        return cp
    if p == 2:
        exponent_orders = divisors(cp)  # 1 + t^c = 1 - t^c in char 2
    else:
        exponent_orders = [e for e in divisors(2 * cp) if cp % e != 0]
    return sum(euler_phi(e) // multiplicative_order(p, e) for e in exponent_orders)


# ---------------------------------------------------------------------------
# two-variable weighted reduction and factor validation

def binary_weighted_reduction(h: WPolynomial) -> tuple[list, int]:
    """Collapse a weighted form in <= 2 effective variables to one variable.

    For h supported on variables i, j with coprime reduced weights (ci, cj),
    and divisible by neither variable, every exponent pair has the shape
    (k*cj, ci*(M' - k)); the coefficients of s^k for k = 0..M' are returned.
    Irreducible factors of h correspond exactly to irreducible factors of the
    returned univariate polynomial.
    """
    support = h.support_variables()
    if len(support) > 2:
        raise DegenerateInput("reduction applies to polynomials in at most two variables")
    if len(support) <= 1:
        raise DegenerateInput("reduction needs two effective variables")
    i, j = support
    ci, cj = h.ring.weights[i], h.ring.weights[j]
    g = gcd(ci, cj)
    ci, cj = ci // g, cj // g
    mins = h.min_exponents()
    if mins[i] or mins[j]:
        raise DegenerateInput("reduction needs a polynomial divisible by neither variable")
    pair_degrees = {exps[i] * ci + exps[j] * cj for exps in h.terms}
    if len(pair_degrees) != 1:
        raise InhomogeneousPolynomial("not homogeneous for the reduced pair weights")
    m0 = pair_degrees.pop()
    if m0 % (ci * cj) != 0:
        raise InternalInconsistency("degree not a multiple of both reduced pair weights")
    mprime = m0 // (ci * cj)
    coeffs = [0] * (mprime + 1)
    for exps, coeff in h.terms.items():
        alpha, beta = exps[i], exps[j]
        if alpha % cj != 0 or beta % ci != 0:
            raise InternalInconsistency("exponent off the forced lattice; bug")
        k = alpha // cj
        if beta != ci * (mprime - k):
            raise InternalInconsistency("exponent pair inconsistent with homogeneity")
        coeffs[k] = coeff
    return coeffs, mprime


@dataclass(frozen=True)
class FactoredForm:
    """A validated factorization g = h_1 ... h_r."""

    factors: tuple[WPolynomial, ...]
    product: WPolynomial
    exactness: str  # "exact" when every factor is certified irreducible
    closure_splits: tuple[int, ...] | None = None  # per factor, over the closure
    warnings: tuple[str, ...] = ()

    @property
    def r(self) -> int:
        return len(self.factors)

    @property
    def effective_factor_count(self) -> int:
        if self.closure_splits is None:
            return len(self.factors)
        return sum(self.closure_splits)

    @property
    def splits_over_closure(self) -> bool:
        return self.closure_splits is not None and any(
            s != 1 for s in self.closure_splits
        )


def _scalar_multiples(h1: WPolynomial, h2: WPolynomial) -> bool:
    if set(h1.terms) != set(h2.terms):
        return False
    f = h1.ring.field
    _, lc1 = h1.leading()
    _, lc2 = h2.leading()
    # cross-multiply to stay division-free
    return all(
        f.mul(c1, lc2) == f.mul(h2.terms[e], lc1) for e, c1 in h1.terms.items()
    )


def _certify_factor(h: WPolynomial, n: int) -> tuple[bool, int]:
    """Try to certify irreducibility of a non-variable factor.

    Returns (certified, closure_split_count).  Certification succeeds when the
    factor involves at most two variables; then irreducibility over the base
    field and the number of factors over the closure are decided exactly via
    the univariate reduction.  Raises NotIrreducible / RepeatedFactor when the
    reduction disproves the hypotheses.
    """
    field = h.ring.field
    support = h.support_variables()
    if len(support) > 2:
        return False, 1
    if len(support) <= 1:
        # homogeneous in one variable means a single term; after the
        # variable-divisibility screen only plain variables reach this point
        raise InternalInconsistency("one-variable non-variable factor slipped through")
    coeffs, mprime = binary_weighted_reduction(h)
    p = field.char
    if p == 0:
        distinct = univariate.q_squarefree_degree(coeffs)
    else:
        distinct = univariate.fp_squarefree_degree([c % p for c in coeffs], p)
    if distinct < mprime and n >= 2:
        raise RepeatedFactor(
            f"factor {h.to_string()} has a repeated component (squarefree part "
            f"has degree {distinct} < {mprime}); the hypersurface is not normal"
        )
    if field.closed:
        # over the closure the factor splits into `distinct` linear pieces
        return True, distinct
    if mprime == 1:
        return True, 1
    if p == 0:
        irreducible = univariate.q_irreducible(coeffs)
    else:
        irreducible = univariate.fp_irreducible([c % p for c in coeffs], p)
    if not irreducible:
        raise NotIrreducible(
            f"factor {h.to_string()} is reducible (univariate reduction of "
            f"degree {mprime} factors over {field})"
        )
    return True, 1


def check_factor_shapes(factors: list[WPolynomial], ring: WeightedRing) -> None:
    """Each factor lives in `ring` and is nonzero, nonconstant and weighted
    homogeneous; the list is nonempty."""
    if not factors:
        raise DegenerateInput("factor list must be nonempty")
    for h in factors:
        if h.ring != ring:
            raise DegenerateInput("factor not in the expected ring")
        if h.is_zero:
            raise ZeroPolynomial("zero polynomial supplied as a factor")
        try:
            weighted_degree(h)
        except InhomogeneousPolynomial as exc:
            raise InhomogeneousFactor(
                f"factor {h.to_string()} is not weighted homogeneous: {exc}"
            ) from None
        if h.is_constant:
            raise NotIrreducible(f"constant factor {h.to_string()} is a unit")


def factor_product(
    factors: list[WPolynomial], ring: WeightedRing, g: WPolynomial | None = None
) -> WPolynomial:
    """Product of the factors once their shapes pass check_factor_shapes;
    raises ProductMismatch when a declared g differs from it."""
    check_factor_shapes(factors, ring)
    product = prod(factors[1:], start=factors[0])
    if g is not None and product != g:
        raise ProductMismatch(
            f"product of factors is {product.to_string()}, expected {g.to_string()}"
        )
    return product


def validate_factorization(
    factors: list[WPolynomial],
    ring: WeightedRing,
    n: int,
    g: WPolynomial | None = None,
) -> FactoredForm:
    """Check a user-supplied factorization g = h_1 ... h_r.

    Checks: the factor shapes and, when g is given, the product
    (factor_product); no factor is divisible by a variable unless it is one;
    no two factors are proportional (for n >= 2).  When every factor
    involves at most two variables, irreducibility is certified exactly;
    otherwise the result is flagged "attested".
    """
    product = factor_product(factors, ring, g)
    notes: list[str] = []

    for h in factors:
        if h.as_variable() is not None:
            continue
        mins = h.min_exponents()
        for i, e in enumerate(mins):
            if e >= 1:
                if n == 1:
                    notes.append(
                        f"factor {h.to_string()} is divisible by "
                        f"{ring.variables[i]}; tolerated because n = 1"
                    )
                    break
                raise NotIrreducible(
                    f"factor {h.to_string()} is divisible by {ring.variables[i]} "
                    "but is not a variable"
                )

    for idx1 in range(len(factors)):
        for idx2 in range(idx1 + 1, len(factors)):
            if _scalar_multiples(factors[idx1], factors[idx2]):
                if n >= 2:
                    raise RepeatedFactor(
                        f"factors {factors[idx1].to_string()} and "
                        f"{factors[idx2].to_string()} are proportional; "
                        "the hypersurface is not normal"
                    )
                notes.append("repeated factors tolerated because n = 1")

    splits = []
    all_certified = True
    for h in factors:
        if h.as_variable() is not None:
            splits.append(1)
            continue
        try:
            certified, split = _certify_factor(h, n)
        except (NotIrreducible, RepeatedFactor, DegenerateInput):
            if n >= 2:
                raise
            certified, split = False, 1
            notes.append(
                f"factor {h.to_string()} not certified irreducible; "
                "tolerated because n = 1"
            )
        splits.append(split)
        if not certified:
            all_certified = False

    exactness = "exact" if all_certified else "attested"
    if not all_certified:
        notes.append(
            "irreducibility of factors in three or more variables is attested, not verified"
        )
    closure_splits = tuple(splits) if ring.field.closed else None
    return FactoredForm(
        factors=tuple(factors),
        product=product,
        exactness=exactness,
        closure_splits=closure_splits,
        warnings=tuple(notes),
    )
