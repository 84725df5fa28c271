"""Independent recomputation of the pipeline's checkable claims.

Every check here goes through a representation the pipeline itself never
touches: graded ideal components instead of section clearing, lattice
exponent searches instead of Smith normal form, cyclotomic products and
trial division instead of the divisor-counting formulas.  Agreement between
the two routes is the point; none of these functions call back into the
code paths they are judging.

The graded checks compare three statements about the modules of Watanabe's
Q-divisor D degree by degree up to a depth: the module of
E_t = -(1/n)V(h_t) is (z, h_t), the module of n*E_t is h_t R, and the
modules of the E_t meet in zR.  One walk over the degrees, `verify_graded`,
runs them all and has no restricted modes.  Per degree j it builds each
piece once: Z of zR, H_t of h_t R (both from `ideal_graded_component`), M_t
of E_t and N_t of n*E_t (both from `divisorial_module_component`).  It then
checks M_t == Z + H_t, since (z, h_t) = zR + h_t R, and N_t == H_t, and
that the intersection of the M_t is Z; with r = 1 it checks Z inside M_0
instead.  Where every Z + H_t came back as Z itself (`plus` returns an
operand that contains the other; Z is all of R_j when u >= 1 in
j = u m + v n) and every M_t == Z held, the M_t are equal spans, which
meet in Z and contain it, so that degree passes without `intersect_all`;
everywhere else the intersection is computed.  Each check is one `==`
(or `contains_space`) between pieces that
hold the job's one field object, so two sets of monomials compare as sets.
No piece outlives its degree, except the one empty space that each
residue table and generator returns for every empty piece.
`verify_divisorial_ideal_graded` and `verify_order_relations_graded` are
views of that walk's outcomes, kept for the tests and the benchmark
tracer's layer table; each runs the whole walk.  The piece builders and `intersect_all` are read as module names at
call time, so a test can plant an error in any one piece.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from math import gcd, prod

from .classgroup import compute_class_group
from .errors import (
    DegenerateInput,
    InternalInconsistency,
    NormalityUnverified,
    RepeatedFactor,
    SearchSpaceTooLarge,
)
from .exactmath import divisors, factorize
from .fields import FieldSpec
from .hyperring import HypersurfaceInput, ideal_graded_component, prepare_generator
from .linalg import intersect_all
from .qdivisor import DivisorContext
from .sections import divisorial_module_component
from .univariate import (
    cyclotomic,
    fp_mul,
    fp_strip,
    fp_trial_division_factors,
    int_mul,
    one_plus_tc,
)
from .wpoly import (
    WeightedRing,
    WPolynomial,
    count_factors_one_plus_tc,
    validate_factorization,
)


# ---------------------------------------------------------------------------
# graded recomputation of the divisorial ideals and their relations

@dataclass(frozen=True)
class GradedIdealOutcome:
    """Degreewise comparison of one divisorial module with its ideal."""

    t: int
    depth: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class OrderRelationsOutcome:
    depth: int
    variant: str  # "intersection" when r >= 2, "single-factor" when r = 1
    order_ok: bool
    intersection_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.order_ok and self.intersection_ok


def verify_graded(
    dctx: DivisorContext, depth: int
) -> tuple[tuple[GradedIdealOutcome, ...], OrderRelationsOutcome]:
    """Every graded check in one walk over the degrees j <= `depth`.

    Returns one `GradedIdealOutcome` per t, failing at the degrees where
    M_t != Z + H_t, and the `OrderRelationsOutcome`, failing at the degrees
    where N_t != H_t and where the M_t do not meet in Z (see the module
    docstring).
    """
    inp = dctx.input
    Ets = [dctx.Et(t) for t in range(dctx.r)]
    nEts = [E.scale(inp.n) for E in Ets]
    zgen = prepare_generator(inp, 1, WPolynomial.one(inp.ring))
    hgens = [prepare_generator(inp, 0, dctx.components[c].form) for c in dctx.factor_component]
    ideal_failures = [[] for _ in Ets]
    order_failures = [[] for _ in Ets]
    sum_bad = []
    for j in range(depth + 1):
        Z = ideal_graded_component(inp, zgen, j)
        H = [ideal_graded_component(inp, gen, j) for gen in hgens]
        M = [divisorial_module_component(dctx, E, j) for E in Ets]
        # each comparison is one `==`, whose result is then negated: `!=`
        # would dispatch twice, through `__ne__` to `__eq__`
        all_z = True  # so far every Z + H_t is Z itself and every M_t == Z
        for t, module in enumerate(M):
            ideal = Z.plus(H[t])
            if not module == ideal:
                all_z = False
                detail = f"t={t} j={j}: module dim {module.dim} vs ideal dim {ideal.dim}"
                if module.dim == ideal.dim:
                    # equal dimensions and unequal spans: neither contains the other
                    detail += "; module not inside ideal, ideal not inside module"
                ideal_failures[t].append(detail)
            elif ideal is not Z:
                all_z = False
        for t, nE in enumerate(nEts):
            if not divisorial_module_component(dctx, nE, j) == H[t]:
                order_failures[t].append(f"order t={t} j={j}")
        # when every M_t equals Z, they meet in Z and contain it
        if all_z:
            continue
        if dctx.r >= 2:
            bad = not intersect_all(M) == Z
        else:
            bad = not M[0].contains_space(Z)
        if bad:
            sum_bad.append(j)
    ideals = tuple(
        GradedIdealOutcome(t=t, depth=depth, failures=tuple(failures))
        for t, failures in enumerate(ideal_failures)
    )
    order = [failure for failures in order_failures for failure in failures]
    if dctx.r >= 2:
        variant, label = "intersection", "intersection"
    else:
        variant, label = "single-factor", "containment"
    relations = OrderRelationsOutcome(
        depth=depth,
        variant=variant,
        order_ok=not order,
        intersection_ok=not sum_bad,
        failures=tuple(order + [f"{label} j={j}" for j in sum_bad]),
    )
    return ideals, relations


def verify_divisorial_ideal_graded(
    dctx: DivisorContext, t: int, depth: int
) -> GradedIdealOutcome:
    """Compare the module of the t-th negative component with (z, h_t).

    The module side comes from section spaces and denominator clearing; the
    ideal side is the span sum of the zR and h_t R pieces, each from
    generator-times-monomial rows.  They must agree in every degree up to
    `depth`.  A view of `verify_graded`, which runs the whole walk.
    """
    if not 0 <= t < dctx.r:
        raise DegenerateInput(f"factor index {t} out of range for r = {dctx.r}")
    return verify_graded(dctx, depth)[0][t]


def verify_order_relations_graded(
    dctx: DivisorContext, depth: int
) -> OrderRelationsOutcome:
    """Recheck the order and sum relations degree by degree.

    Order: the module of n*E_t must equal h_t R in every degree.  Sum: the
    intersection of the r modules must equal zR.  With a single factor the
    intersection statement degenerates, so only zR's containment in the
    module is asserted and the outcome is marked as the single-factor
    variant.  A view of `verify_graded`, which runs the whole walk.
    """
    return verify_graded(dctx, depth)[1]


# ---------------------------------------------------------------------------
# monomial model for z^n = x0 x1

@dataclass(frozen=True)
class MonomialModel:
    """The invariant ring spanned by monomials x^i y^l with i = l mod n."""

    n: int
    bound: int

    def members(self, j: int) -> list[tuple[int, int]]:
        """Monomials of x^j k[x,y] that lie in the ring, up to the bound.

        Ordered by i, then l; for each i only the l = i mod n are visited.
        """
        n, bound = self.n, self.bound
        return [
            (i, l) for i in range(j, bound + 1) for l in range(i % n, bound + 1, n)
        ]

    def principal_generator(self, j: int) -> tuple[int, int] | None:
        """The single monomial generating the ideal, if there is one.

        A candidate works exactly when it divides every member with the
        quotient back in the ring; the congruence is automatic, so divide
        means dominate in both exponents.  A member dominating all members
        is their componentwise minimum, so that pair is the only candidate:
        it generates exactly when it is itself a member.

        The minima are read off without listing the members.  The i with a
        member are those j <= i <= bound with i mod n <= bound (then
        l = i mod n is the least), and i mod n repeats with period n, so the
        first n values of i hold the least such i and every residue that
        occurs.
        """
        n, bound = self.n, self.bound
        firsts = [i for i in range(j, min(bound, j + n - 1) + 1) if i % n <= bound]
        if not firsts:
            return None
        p, q = firsts[0], min(i % n for i in firsts)
        return (p, q) if (p - q) % n == 0 else None


@dataclass(frozen=True)
class MonomialModelReport:
    n: int
    bound: int
    entries: tuple[tuple[int, bool, tuple[int, int] | None], ...]
    conclusive: bool

    @property
    def principal_iff_multiple(self) -> bool:
        return all(
            principal == (j % self.n == 0) for j, principal, _ in self.entries
        )

    @property
    def order(self) -> int | None:
        """Smallest positive j with a principal ideal, if conclusive."""
        if not self.conclusive:
            return None
        for j, principal, _ in self.entries:
            if j > 0 and principal:
                return j
        return None


# The largest `monomial_model_work` that `monomial_model_classgroup` may scan.
# At the default bound 6n the work is (2n + 1) n, so n <= 706 passes.
# Reading the minima off at most n points per ideal took 2 ms at n = 101,
# 33 ms at n = 401 and 0.11 s at n = 706 (Python 3.11, 2 cores).
MAX_MONOMIAL_MODEL_WORK = 10**6


def monomial_model_work(n: int, bound: int) -> int:
    """Upper bound on the lattice points that the principality table reads:
    `principal_generator` reads at most min(n, bound + 1) points i for each
    of the 2n + 1 ideals."""
    return (2 * n + 1) * min(n, bound + 1)


def monomial_model_classgroup(n: int, bound: int | None = None) -> MonomialModelReport:
    """Principality table for the ideals x^j k[x,y] meet k[xy, x^n, y^n].

    Searches exhaustively within the exponent bound; a bound below 3n leaves
    too little room past j = 2n for the domination test to mean anything, so
    the report is flagged inconclusive rather than trusted.  A search whose
    `monomial_model_work` exceeds `MAX_MONOMIAL_MODEL_WORK` raises
    SearchSpaceTooLarge before any point is visited.
    """
    if n < 2:
        raise DegenerateInput("the monomial model needs n >= 2")
    if bound is None:
        bound = 6 * n
    work = monomial_model_work(n, bound)
    if work > MAX_MONOMIAL_MODEL_WORK:
        raise SearchSpaceTooLarge(
            f"the monomial model for n = {n} at bound {bound} scans up to {work} "
            f"lattice points, above the limit {MAX_MONOMIAL_MODEL_WORK}"
        )
    model = MonomialModel(n=n, bound=bound)
    entries = []
    for j in range(2 * n + 1):
        generator = model.principal_generator(j)
        entries.append((j, generator is not None, generator))
    return MonomialModelReport(
        n=n, bound=bound, entries=tuple(entries), conclusive=bound >= 3 * n
    )


# ---------------------------------------------------------------------------
# univariate cross-checks for the factor counter

def cyclotomic_product_check(c: int) -> bool:
    """Product of the cyclotomic polynomials over e | 2c, e not | c."""
    if c < 1:
        raise DegenerateInput("need c >= 1")
    acc = [1]
    for e in divisors(2 * c):
        if c % e:
            acc = int_mul(acc, list(cyclotomic(e)))
    return acc == one_plus_tc(c)


def exhaustive_fp_factor_count(c: int, p: int, budget: int = 2_000_000) -> int:
    """Distinct irreducible factors of 1 + t^c over F_p by trial division.

    When p divides c the polynomial is (1 + t^{c/p^k})^{p^k} with the same
    distinct factors, so the power is stripped before the search; trial
    division on the unstripped polynomial would spend its budget rediscovering
    each factor p^k times.
    """
    if c < 1:
        raise DegenerateInput("need c >= 1")
    while c % p == 0:
        c //= p
    return len(fp_trial_division_factors(one_plus_tc(c), p, budget))


# ---------------------------------------------------------------------------
# two-variable diagonal cross-check

@dataclass(frozen=True)
class DiagonalCrosscheck:
    m1: int
    m2: int
    n: int
    field: FieldSpec
    c: int
    predicted_count: int
    invariant_factors: tuple[int, ...] | None
    rejection: str | None
    consistent: bool
    notes: tuple[str, ...]


def _one_plus_tc_factors(c: int, field: FieldSpec) -> list[tuple[tuple[int, ...], int]]:
    """Factor 1 + t^c over the base field, as (coefficients, multiplicity)."""
    p = field.char
    if p == 0:
        if not cyclotomic_product_check(c):
            raise InternalInconsistency("cyclotomic product lost track of 1 + t^c")
        return [(cyclotomic(e), 1) for e in divisors(2 * c) if c % e]
    cp, k = c, 1
    while cp % p == 0:
        cp //= p
        k *= p
    pieces = fp_trial_division_factors(one_plus_tc(cp), p)
    out = [(coeffs, mult * k) for coeffs, mult in pieces]
    acc = [1]
    for coeffs, mult in out:
        for _ in range(mult):
            acc = fp_mul(acc, list(coeffs), p)
    if acc != fp_strip(one_plus_tc(c), p):
        raise InternalInconsistency("trial-division product lost track of 1 + t^c")
    return out


def diagonal_d2_crosscheck(
    m1: int, m2: int, n: int, field: FieldSpec
) -> DiagonalCrosscheck:
    """Run the pipeline on x1^m1 + x2^m2 against the counting prediction.

    The factorization handed to the pipeline is built here from scratch: the
    univariate factors of 1 + t^c (c = gcd(m1, m2)) are homogenized through
    t -> x1^(m1/c) / x2^(m2/c).  The counter predicts the number of factors;
    the pipeline must return that many minus one copies of Z/n.  When the
    characteristic divides c the polynomial is a proper power, so the only
    consistent outcome is a repeated-factor rejection.
    """
    if m1 < 1 or m2 < 1 or n < 1:
        raise DegenerateInput("need positive m1, m2, n")
    c = gcd(m1, m2)
    notes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        predicted = count_factors_one_plus_tc(c, field)
    expect_rejection = field.char != 0 and c % field.char == 0 and n >= 2
    ring = WeightedRing(("x1", "x2"), (m2 // c, m1 // c), field)
    e1, e2 = m1 // c, m2 // c
    factors = []
    for coeffs, mult in _one_plus_tc_factors(c, field):
        e = len(coeffs) - 1
        terms = {
            (i * e1, (e - i) * e2): a for i, a in enumerate(coeffs) if a
        }
        factors.extend([WPolynomial(ring, terms)] * mult)
    g = WPolynomial(
        ring, {(m1, 0): 1, (0, m2): 1}
    )
    invariants = None
    rejection = None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inp = HypersurfaceInput(validate_factorization(factors, ring, n, g), n)
        try:
            result = compute_class_group(inp)
        except NormalityUnverified:
            notes.append(
                "normality attested: characteristic divides an exponent, "
                "outside the automatic diagonal criterion"
            )
            result = compute_class_group(inp, assume_normal=True)
        invariants = result.group.invariant_factors
        if n == 1:
            consistent = invariants == ()
        else:
            consistent = (not expect_rejection) and invariants == (n,) * (
                predicted - 1
            )
    except RepeatedFactor as exc:
        rejection = str(exc)
        consistent = expect_rejection
    return DiagonalCrosscheck(
        m1=m1,
        m2=m2,
        n=n,
        field=field,
        c=c,
        predicted_count=predicted,
        invariant_factors=invariants,
        rejection=rejection,
        consistent=consistent,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# small-group enumeration against the Smith normal form route

def quotient_invariants_bruteforce(
    moduli: tuple[int, ...], generators, limit: int = 10_000
) -> tuple[int, ...]:
    """Invariant factors of (Z/m_1 x ... x Z/m_k) / <generators> by counting.

    Enumerates the whole group, closes the subgroup, and reads off the
    invariant factors from the sizes of the kernels of multiplication by
    prime powers.  No matrix reduction anywhere; this is the cross-check
    for the cokernel route.
    """
    k = len(moduli)
    for m in moduli:
        if m < 1:
            raise DegenerateInput("moduli must be positive")
    total = prod(moduli)
    if total > limit:
        raise SearchSpaceTooLarge(
            f"group of order {total} exceeds the enumeration limit {limit}"
        )
    for gen in generators:
        if len(gen) != k:
            raise DegenerateInput("generator length does not match moduli")
    zero = (0,) * k
    subgroup = {zero}
    frontier = [zero]
    gens = [tuple(g) for g in generators]
    while frontier:
        x = frontier.pop()
        for gen in gens:
            y = tuple((a + b) % m for a, b, m in zip(x, gen, moduli))
            if y not in subgroup:
                subgroup.add(y)
                frontier.append(y)
    q = total // len(subgroup)
    if q == 1:
        return ()
    whole = list(itertools.product(*(range(m) for m in moduli)))
    profiles = {}
    for ell in factorize(q):
        counts_above = []
        j = 1
        prev = len(subgroup)
        while True:
            scale = ell**j
            cnt = 0
            for x in whole:
                if tuple((scale * a) % m for a, m in zip(x, moduli)) in subgroup:
                    cnt += 1
            step, rem = divmod(cnt, prev)
            if rem:
                raise InternalInconsistency("kernel size not divisible by the last")
            a_j = 0
            while step % ell == 0:
                step //= ell
                a_j += 1
            if step != 1:
                raise InternalInconsistency("kernel growth is not a power of the prime")
            counts_above.append(a_j)
            prev = cnt
            if a_j == 0:
                break
            j += 1
        # counts_above[j-1] = number of invariant factors with ell-exponent >= j
        exps = []
        for depth_count in counts_above:
            for i in range(depth_count):
                if i >= len(exps):
                    exps.append(0)
                exps[i] += 1
        profiles[ell] = sorted(exps)
    width = max(len(v) for v in profiles.values())
    out = []
    for pos in range(width):
        d = 1
        for ell, exps in profiles.items():
            pad = width - len(exps)
            if pos >= pad:
                d *= ell ** exps[pos - pad]
        out.append(d)
    if prod(out) != q:
        raise InternalInconsistency("invariant factor product disagrees with the order")
    return tuple(out)
