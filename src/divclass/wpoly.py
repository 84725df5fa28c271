"""Weighted multivariate polynomials with exact coefficients.

A WPolynomial is a sparse map from exponent vectors to nonzero field
coefficients.  The ring fixes an ordered list of variable names, a positive
integer weight per variable and a FieldSpec; degrees are always measured
against those weights ("c-degree").

Terms are validated once, where they enter: the public constructor
`WPolynomial(ring, terms)` checks every exponent vector and canonicalizes
every coefficient, which must be an int or a Fraction (over F_p, a/b is
a * b^-1).  The arithmetic on term dicts (`add_terms`, `mul_terms`,
`pow_terms`) is the one implementation behind the operators `+`, `-`, `*`,
`**` and the expression parser.  Its results, those of `scale`, `variable`
and `with_ring`, and the x0 lift of `classgroup` are canonical by
construction and are wrapped by the private `_wrap`, which checks nothing.

Alongside the arithmetic this module owns the homogeneity services, monomial
enumeration by weighted degree, the validator for user-supplied
factorizations, and the count of irreducible factors of 1 + t^c over the
supported fields.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from operator import add as _add

from . import univariate
from .errors import (
    DegenerateInput,
    InhomogeneousFactor,
    InhomogeneousPolynomial,
    InternalInconsistency,
    NotIrreducible,
    ProductMismatch,
    RepeatedFactor,
    SearchSpaceTooLarge,
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

    def __eq__(self, other) -> bool:
        # the polynomials of one job share one ring, so identity settles most
        # comparisons; the dataclass hash still reads the fields
        if self is other:
            return True
        if type(other) is not WeightedRing:
            return NotImplemented
        return (
            self.variables == other.variables
            and self.weights == other.weights
            and self.field == other.field
        )

    @property
    def d(self) -> int:
        return len(self.variables)


class WPolynomial:
    """Sparse polynomial: dict from exponent tuples to nonzero coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: WeightedRing, terms: dict):
        self.ring = ring
        p = ring.field.char
        clean = {}
        for exps, c in terms.items():
            if len(exps) != ring.d:
                raise DegenerateInput("exponent vector length does not match ring")
            if any(e < 0 for e in exps):
                raise DegenerateInput(f"negative exponent in {exps}")
            if not isinstance(c, (int, Fraction)):
                raise DegenerateInput(f"coefficient {c!r} is not an integer or a fraction")
            if p and isinstance(c, Fraction):
                if c.denominator % p == 0:
                    raise DegenerateInput(f"coefficient {c} has a denominator divisible by {p}")
                c = c.numerator * pow(c.denominator, -1, p)
            c = ring.field.canon(c)
            if not ring.field.is_zero(c):
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def _wrap(cls, ring: WeightedRing, terms: dict) -> "WPolynomial":
        """A polynomial owning `terms`, which must already be valid: exponent
        tuples of length ring.d with nonnegative entries, canonical nonzero
        coefficients.  Nothing is checked or copied."""
        out = object.__new__(cls)
        out.ring = ring
        out.terms = terms
        return out

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
        return WPolynomial._wrap(ring, {tuple(exps): 1})

    def with_ring(self, ring: WeightedRing) -> "WPolynomial":
        """Same terms, different ring (used when weights are renormalized).

        The terms stay valid when the ring has as many variables and the same
        field; otherwise they go through the public constructor's checks.
        """
        if ring.d != self.ring.d or ring.field != self.ring.field:
            return WPolynomial(ring, self.terms)
        return WPolynomial._wrap(ring, dict(self.terms))

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
        terms = add_terms(dict(self.terms), other.terms, self.ring.field)
        return WPolynomial._wrap(self.ring, terms)

    def __neg__(self) -> "WPolynomial":
        return WPolynomial._wrap(self.ring, add_terms({}, self.terms, self.ring.field, negate=True))

    def __sub__(self, other: "WPolynomial") -> "WPolynomial":
        return self + (-other)

    def __mul__(self, other: "WPolynomial") -> "WPolynomial":
        self._same_ring(other)
        return WPolynomial._wrap(self.ring, mul_terms(self.terms, other.terms, self.ring.field))

    def scale(self, c) -> "WPolynomial":
        mul = self.ring.field.mul
        out = {}
        for e, v in self.terms.items():
            v = mul(v, c)
            if v:
                out[e] = v
        return WPolynomial._wrap(self.ring, out)

    def __pow__(self, k: int) -> "WPolynomial":
        if k < 0:
            raise DegenerateInput("negative polynomial power")
        return WPolynomial._wrap(self.ring, pow_terms(self.terms, k, self.ring.field, self.ring.d))

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
            neg = c < 0
            mag = -c if neg else c
            coeff_str = "" if (mag == 1 and body) else str(mag)
            term = coeff_str + ("*" if coeff_str and body else "") + (body or "")
            if idx == 0:
                out.append(("-" if neg else "") + term)
            else:
                out.append((" - " if neg else " + ") + term)
        return "".join(out)


# ---------------------------------------------------------------------------
# term-dict arithmetic, shared by the WPolynomial operators and the parser
#
# A term dict maps exponent tuples to canonical nonzero coefficients of one
# field.  The field operations return canonical coefficients, and a canonical
# coefficient is falsy exactly when it is zero.

def add_terms(acc: dict, other: dict, field: FieldSpec, negate: bool = False) -> dict:
    """acc + other, or acc - other with `negate`, computed in place in acc."""
    add, neg = field.add, field.neg
    for exps, c in other.items():
        if negate:
            c = neg(c)
        if exps in acc:
            c = add(acc[exps], c)
            if not c:
                del acc[exps]
                continue
        acc[exps] = c
    return acc


def mul_terms(a: dict, b: dict, field: FieldSpec) -> dict:
    """The product a * b as a new term dict."""
    add, mul = field.add, field.mul
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(_add, e1, e2))
            c = mul(c1, c2)
            out[key] = add(out[key], c) if key in out else c
    return {e: c for e, c in out.items() if c}


def pow_terms(base: dict, k: int, field: FieldSpec, d: int) -> dict:
    """base^k for k >= 0, with d variables.  A one-term base scales its
    exponents; any other base is multiplied in k - 1 times (base itself for
    k = 1), cheaper than repeated squaring for the small sums of job files."""
    if k == 0:
        return {(0,) * d: 1}
    if len(base) == 1:
        ((exps, c),) = base.items()
        return {tuple(k * e for e in exps): field.pow(c, k)}
    result = base
    for _ in range(k - 1):
        result = mul_terms(result, base, field)
    return result


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
# and degrees, and unbounded caches would keep every enumeration alive.  The
# translate cache of `shifted_monomials` keeps whole key sets of a walk's
# current degrees and has a far smaller bound of its own, `SHIFT_CACHE_SIZE`.
_CACHE_SIZE = 1024


@lru_cache(maxsize=_CACHE_SIZE)
def _denumerant_table(weights: tuple[int, ...], v: int) -> tuple[int, ...]:
    table = [0] * (v + 1)
    table[0] = 1
    for c in weights:
        for i in range(c, v + 1):
            table[i] += table[i - c]
    return tuple(table)


def monomial_counts(ring: WeightedRing, v: int) -> tuple[int, ...]:
    """Number of exponent vectors of each weighted degree 0..v, one table."""
    return _denumerant_table(ring.weights, v) if v >= 0 else ()


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
    return tuple(_vectors(weights, v))


def _vectors(weights: tuple[int, ...], v: int) -> list[tuple[int, ...]]:
    """The vectors of `_enumerate`, for v >= 0 and at least one weight.

    This recursion is not cached; only `_enumerate`, the whole enumeration,
    is.  A walk then takes one cache entry per degree and never evicts its
    own entries below `_CACHE_SIZE` degrees, where caching every level would
    take d entries per degree.  The last variable takes the one exponent
    left, so the work is that of the loops over the other variables: in
    proportion to the output when the last weight is 1.  With two weights
    (c, c') left, the a with (v - a c) % c' == 0 form one residue class
    mod c'/g, g = gcd(c, c'), and there are none unless g divides v; the
    loop steps through that class only, from its largest member <= v // c.
    """
    c = weights[0]
    if len(weights) == 1:
        return [(v // c,)] if v % c == 0 else []
    if len(weights) == 2:
        c2 = weights[1]
        g = gcd(c, c2)
        if v % g:
            return []
        step = c2 // g
        # a c = v (mod c2) exactly when a = (v/g) (c/g)^-1 (mod step)
        top = v // c
        top -= (top - v // g * pow(c // g, -1, step)) % step
        return [(a, (v - a * c) // c2) for a in range(top, -1, -step)]
    rest = weights[1:]
    return [(a,) + tail for a in range(v // c, -1, -1) for tail in _vectors(rest, v - a * c)]


def enumerate_monomials_of_degree(ring: WeightedRing, v: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of weighted degree v, lexicographically descending."""
    return _enumerate(ring.weights, v)


# Bound on the translate cache of `shifted_monomials`.  A degree walk's pieces
# come back to a handful of (v, offset) keys at nearby degrees: the n degrees
# j = u m + v n share v, and the ideal and module pieces of one degree often
# share their key.  Each entry keeps a whole key set alive, and deep walks
# hold larger sets: `verify jobs/z3_x1x2.json --depth 2000` peaked at 43.0 MB
# without the cache and at 43.4, 44.7 and 62.7 MB with 16, 32 and 256
# entries.  16 entries were no faster than 32 on verify-monomial (BENCH_21).
SHIFT_CACHE_SIZE = 32


@lru_cache(maxsize=SHIFT_CACHE_SIZE)
def shifted_monomials(weights: tuple[int, ...], v: int, offset: tuple[int, ...]) -> frozenset:
    """The set {mu + offset : mu of weighted degree v}, built from the cached
    enumeration `_enumerate`; the graded pieces that land on one of the
    `SHIFT_CACHE_SIZE` most recently used keys share one frozenset."""
    mus = _enumerate(weights, v)
    if not any(offset):
        return frozenset(mus)
    return frozenset(zip(*([mu[i] + b for mu in mus] for i, b in enumerate(offset))))


# ---------------------------------------------------------------------------
# factor counting for 1 + t^c

# 2c is factored by trial division, whose time grows as sqrt(c)
MAX_FACTOR_COUNT_C = 10**12


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
    if c > MAX_FACTOR_COUNT_C:
        raise SearchSpaceTooLarge(
            f"c = {c} exceeds the limit {MAX_FACTOR_COUNT_C} for factoring 2c"
        )
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

# The largest estimated work of certifying a reduction of degree d: up to
# d / 2 powers t^(p^k) modulo it (Ben-Or), whose residues are monomials
# modulo a binomial and have about d terms otherwise, so d^2 for a binomial
# and d^3 else.  Each power takes about log2 p products, so over F_p with
# b = p.bit_length() > 8 the estimate is scaled by (b - 4) / 4.  `classgroup`
# on x1^k + 3 x2^k (n = 7, Q) took 0.37 s at k = 500; `univariate.q_irreducible`
# took 0.17 and 1.0 s on a dense integer polynomial of degree 62 and 120
# (coefficients in [-20, 20]) and 187 s on a trinomial of degree 500.  On
# irreducible dense ones `fp_irreducible` took 0.20 s at degree 62 over a
# prime below 2^8, 3.7 s at degree 62 and 0.12 s at degree 23 over an 82-bit
# prime, and 0.19 s at degree 33 over a 31-bit one (best of three); on
# irreducible binomials of degree 500, 0.29 s below 2^8 and 1.7 s over 82
# bits (Python 3.11, 2 cores).  The limit admits binomials up to degree 500
# and other reductions up to 62 over Q and over primes below 2^8, and up to
# 113 and 23 over an 82-bit prime.
MAX_CERTIFICATION_WORK = 500**2


def binary_weighted_reduction(h: WPolynomial) -> tuple[list, int]:
    """Collapse a weighted form in <= 2 effective variables to one variable.

    For h supported on variables i, j with coprime reduced weights (ci, cj),
    and divisible by neither variable, every exponent pair has the shape
    (k*cj, ci*(M' - k)); the coefficients of s^k for k = 0..M' are returned.
    Irreducible factors of h correspond exactly to irreducible factors of the
    returned univariate polynomial.

    After the support checks, and before any other check of h or anything of
    size M' is allocated, its estimated work (`MAX_CERTIFICATION_WORK`) may
    raise SearchSpaceTooLarge.
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
    first = next(iter(h.terms))
    m0 = first[i] * ci + first[j] * cj
    mprime = m0 // (ci * cj)
    work = mprime * mprime * (mprime if len(h.terms) > 2 else 1)
    field = h.ring.field
    if not field.closed and field.char.bit_length() > 8:
        work = work * (field.char.bit_length() - 4) // 4
    if work > MAX_CERTIFICATION_WORK:
        raise SearchSpaceTooLarge(
            f"factor {h.to_string()} reduces to a univariate polynomial of degree "
            f"{mprime} with {len(h.terms)} terms, an estimated certification work "
            f"of {work}, above the limit {MAX_CERTIFICATION_WORK}"
        )
    mins = h.min_exponents()
    if mins[i] or mins[j]:
        raise DegenerateInput("reduction needs a polynomial divisible by neither variable")
    if any(exps[i] * ci + exps[j] * cj != m0 for exps in h.terms):
        raise InhomogeneousPolynomial("not homogeneous for the reduced pair weights")
    if m0 % (ci * cj) != 0:
        raise InternalInconsistency("degree not a multiple of both reduced pair weights")
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
    """A validated factorization g = h_1 ... h_r over weights of gcd 1; a
    rescale of the given weights is the first entry of `warnings`."""

    factors: tuple[WPolynomial, ...]
    product: WPolynomial
    degrees: tuple[int, ...]  # c-degree of each factor
    exactness: str  # "exact" when every factor is certified irreducible
    closure_splits: tuple[int, ...] | None = None  # per factor, over the closure
    warnings: tuple[str, ...] = ()
    # validated under the n = 1 rules, which tolerate what n >= 2 rejects
    tolerant: bool = False

    @property
    def r(self) -> int:
        return len(self.factors)

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
    reduction disproves the hypotheses, and SearchSpaceTooLarge, for every n,
    when the reduction refuses its estimated work.
    """
    field = h.ring.field
    support = h.support_variables()
    if len(support) > 2:
        return False, 1
    if len(support) <= 1:
        # homogeneous in one variable means a single term c*x_i^k, and a
        # scalar multiple of a variable never gets here, so k >= 2: the
        # variable-divisibility screen rejects it for n >= 2 and n = 1
        # tolerates it as it tolerates any reducible factor
        raise NotIrreducible(
            f"factor {h.to_string()} is a power of one variable, not a variable"
        )
    coeffs, mprime = binary_weighted_reduction(h)
    p = field.char
    if not field.closed:
        # an irreducible polynomial is squarefree and both tests reject a
        # repeated factor themselves, so an accepted factor takes gcd(f, f')
        # once; below it is taken again only to name a rejection
        if mprime == 1:
            return True, 1
        if p == 0:
            irreducible = univariate.q_irreducible(coeffs)
        else:
            irreducible = univariate.fp_irreducible(coeffs, p)
        if irreducible:
            return True, 1
    if p == 0:
        distinct = univariate.q_squarefree_degree(coeffs)
    else:
        distinct = univariate.fp_squarefree_degree(coeffs, p)
    if distinct < mprime and n >= 2:
        raise RepeatedFactor(
            f"factor {h.to_string()} has a repeated component (squarefree part "
            f"has degree {distinct} < {mprime}); the hypersurface is not normal"
        )
    if field.closed:
        # over the closure the factor splits into `distinct` linear pieces
        return True, distinct
    raise NotIrreducible(
        f"factor {h.to_string()} is reducible (univariate reduction of "
        f"degree {mprime} factors over {field})"
    )


def check_factor_shapes(factors: list[WPolynomial], ring: WeightedRing) -> tuple[int, ...]:
    """The c-degree of each factor, once each factor lives in `ring` and is
    nonzero, nonconstant and weighted homogeneous; the list is nonempty."""
    if not factors:
        raise DegenerateInput("factor list must be nonempty")
    degrees = []
    for h in factors:
        if h.ring != ring:
            raise DegenerateInput("factor not in the expected ring")
        if h.is_zero:
            raise ZeroPolynomial("zero polynomial supplied as a factor")
        try:
            degrees.append(weighted_degree(h))
        except InhomogeneousPolynomial as exc:
            raise InhomogeneousFactor(
                f"factor {h.to_string()} is not weighted homogeneous: {exc}"
            ) from None
        if h.is_constant:
            raise NotIrreducible(f"constant factor {h.to_string()} is a unit")
    return tuple(degrees)


def factor_product(
    factors: list[WPolynomial], ring: WeightedRing, g: WPolynomial | None = None
) -> tuple[WPolynomial, tuple[int, ...]]:
    """Product and c-degrees (check_factor_shapes) of the factors; raises
    ProductMismatch when a declared g differs from the product."""
    degrees = check_factor_shapes(factors, ring)
    product = prod(factors[1:], start=factors[0])
    if g is not None and product != g:
        raise ProductMismatch(
            f"product of factors is {product.to_string()}, expected {g.to_string()}"
        )
    return product, degrees


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

    Every check reads `ring`, and none reads otherwise with the weights
    divided by their gcd (`binary_weighted_reduction` divides each pair by
    its gcd), the ring the result is moved to.
    """
    product, degrees = factor_product(factors, ring, g)
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
    reduced, degrees = normalize_weights(ring, degrees)
    if reduced is not ring:
        notes.insert(0, f"weights rescaled from {ring.weights} to {reduced.weights}")
        factors = [h.with_ring(reduced) for h in factors]
        product = product.with_ring(reduced)
    return FactoredForm(
        factors=tuple(factors),
        product=product,
        degrees=degrees,
        exactness=exactness,
        closure_splits=closure_splits,
        warnings=tuple(notes),
        tolerant=n == 1,
    )
