"""Hypothesis validation and the divisor class group pipeline.

For R = k[z, x_1..x_d]/(z^n - g) with g = h_1 ... h_r weighted homogeneous
of degree m coprime to n, the class group is the cokernel of the map
1 -> (a, ..., a) into (Z/n)^r, where a m + b n = 1.  The pipeline assembles
the Bezout data and the divisor D, computes that cokernel through Smith
normal form, and packages generators [(z, h_t)] and their relations together
with the divisor-level identities that witness them.

Normality of R is a hypothesis, not something this module can decide in
general.  It is verified automatically only for diagonal g (a sum of pure
variable powers, smooth away from the origin); anything else requires the
caller to attest normality explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import (
    DegenerateInput,
    GcdViolation,
    InternalInconsistency,
    NormalityUnverified,
)
from .exactmath import FiniteAbelianGroup, cokernel_with_generator_images
from .hyperring import HypersurfaceInput
from .qdivisor import DivisorContext, integer_divisor_degree
from .wpoly import (
    WeightedRing,
    WPolynomial,
    check_factor_shapes,
    factor_product,
    normalize_weights,
    validate_factorization,
)


@dataclass(frozen=True)
class HypothesisReport:
    """The normality and notes that `validate_hypotheses` gave an input."""

    normality_status: str
    notes: tuple[str, ...]


@dataclass(frozen=True)
class GeneratorInfo:
    """One generator class [(z, h)] with its degree data and coordinates."""

    pair: tuple[str, str]
    order: int
    degree_z: int
    degree_h: int
    image: tuple[int, ...]


@dataclass(frozen=True)
class Relation:
    statement: str
    divisor_identity: str
    identity_holds: bool
    witness: str


@dataclass(frozen=True)
class ClassGroupResult:
    group: FiniteAbelianGroup
    generators: tuple[GeneratorInfo, ...]
    relations: tuple[Relation, ...]
    r: int
    mode: str
    report: HypothesisReport
    context: DivisorContext
    x0_weight: int | None = None

    @property
    def closure_splits(self) -> tuple[int, ...] | None:
        return self.context.input.factored.closure_splits

    @property
    def splits_over_closure(self) -> bool:
        return self.context.input.factored.splits_over_closure


def _diagonal_exponents(g: WPolynomial) -> tuple[int, ...] | None:
    """Exponents (m_1..m_d) when g is sum_i coeff_i x_i^{m_i}, else None."""
    ring = g.ring
    seen = {}
    for exps in g.terms:
        positions = [i for i, e in enumerate(exps) if e]
        if len(positions) != 1:
            return None
        i = positions[0]
        if i in seen:
            return None
        seen[i] = exps[i]
    if len(seen) != ring.d:
        return None
    return tuple(seen[i] for i in range(ring.d))


def _normality_status(
    inp: HypersurfaceInput, assume_normal: bool, notes: list[str]
) -> str:
    if inp.n == 1:
        notes.append("n = 1: the ring is a polynomial ring, normal for free")
        return "verified-degenerate"
    diag = _diagonal_exponents(inp.g)
    if diag is not None and inp.ring.d >= 2:
        p = inp.field.char
        if p == 0 or all(e % p for e in diag):
            return "verified-diagonal"
        bad = [e for e in diag if e % p == 0]
        notes.append(
            f"diagonal exponents {bad} divisible by the characteristic {p}; "
            "the Jacobian argument does not apply"
        )
    if assume_normal:
        notes.append("normality attested by caller, not machine-verified")
        return "attested"
    raise NormalityUnverified(
        "cannot verify normality automatically (only diagonal forms in at "
        "least two variables are checked); pass assume_normal to attest it"
    )


def validate_hypotheses(
    inp: HypersurfaceInput, assume_normal: bool = False
) -> HypothesisReport:
    """Gate the pipeline: the gcd test and normality.

    Raises GcdViolation or NormalityUnverified on a hypothesis failure;
    otherwise the report's notes are the factorization's warnings followed
    by the normality notes.  The factors were settled by
    `validate_factorization`, which this gate does not call.
    """
    d = gcd(inp.m, inp.n)
    if d != 1:
        raise GcdViolation(
            f"gcd(deg g, n) = gcd({inp.m}, {inp.n}) = {d} but must be 1; for such "
            "rings the class group need not be finite (z^3 = x1^3 + x2^3 + x3^3 "
            "over C has class group Z^6) and is out of scope"
        )
    notes = list(inp.factored.warnings)
    normality = _normality_status(inp, assume_normal, notes)
    return HypothesisReport(normality_status=normality, notes=tuple(notes))


def _component_labels(inp: HypersurfaceInput) -> list[tuple[str, int]]:
    """Effective prime factor labels with c-degrees, closure splits expanded."""
    labels = []
    splits = inp.factored.closure_splits
    for t, (h, gamma) in enumerate(zip(inp.factored.factors, inp.factored.degrees)):
        s = 1 if splits is None else splits[t]
        if s == 1:
            labels.append((h.to_string(), gamma))
        else:
            if gamma % s:
                raise InternalInconsistency(
                    "closure components of one factor must share a degree"
                )
            labels.extend(
                (f"closure component {i + 1} of {s} of {h.to_string()}", gamma // s)
                for i in range(s)
            )
    return labels


def _relations(dctx: DivisorContext, k: int) -> tuple[Relation, ...]:
    """Order relations k*[(z, h_t)] = 0 (k = n in the pipeline) and the sum
    relation, each checked at the divisor level on integer numerators over
    N = lcm(n, den D), which is n in the pipeline: a divisor is integral iff
    N divides every numerator, and then its degree is that of the quotients."""
    n, den, registry = dctx.input.n, dctx.D.den, dctx.registry
    N = lcm(n, den)
    ND = [d * (N // den) for d in dctx.D.nums]
    e = N // n  # E_t = -(1/n) e_{P_t} is -e at P_t over N
    out = []
    for t, idx in enumerate(dctx.factor_component):
        comp = dctx.components[idx]
        gamma = comp.cdegree
        # k*E_t + k*gamma*D = (k*gamma*N*D - k*e*e_{P_t}) / N
        nums = [k * gamma * d for d in ND]
        nums[idx] -= k * e
        holds = all(a % N == 0 for a in nums) and integer_divisor_degree(registry, nums) == 0
        out.append(
            Relation(
                statement=f"{k}*[(z, {comp.form.to_string()})] = 0",
                divisor_identity=(
                    f"{k}*E_{t + 1} + {k * gamma}*D is integral of degree 0"
                ),
                identity_holds=holds,
                witness=f"(z, h_{t + 1})-module to the n-th order equals h_{t + 1}*R gradedwise",
            )
        )
    # sum_t E_t + m*D = (m*N*D - e*sum_t e_{P_t}) / N
    nums = [dctx.input.m * d for d in ND]
    floor_m = [a // N for a in nums]
    for idx in dctx.factor_component:
        nums[idx] -= e
    holds = (
        all(a % N == 0 for a in nums)
        and [a // N for a in nums] == floor_m
        and integer_divisor_degree(registry, floor_m) == 0
    )
    out.append(
        Relation(
            statement="sum of all [(z, h_t)] = 0",
            divisor_identity="sum_t E_t + m*D equals floor(m*D), integral of degree 0",
            identity_holds=holds,
            witness="intersection of the (z, h_t)-modules equals z*R gradedwise",
        )
    )
    return tuple(out)


def _assemble(
    inp: HypersurfaceInput, report: HypothesisReport, mode: str, x0_weight: int | None
) -> ClassGroupResult:
    """Cokernel, generators and relations of a validated input.

    Every relation is checked at the divisor level here, for both modes;
    one that fails raises InternalInconsistency.
    """
    n = inp.n
    dctx = DivisorContext.build(inp)
    if n == 1:
        return ClassGroupResult(
            group=FiniteAbelianGroup(()),
            generators=(),
            relations=(),
            r=len(inp.factored.factors),
            mode=mode,
            report=report,
            context=dctx,
            x0_weight=x0_weight,
        )
    labels = _component_labels(inp)
    r_eff = len(labels)
    group, images, orders = cokernel_with_generator_images(
        (dctx.bez.a,) * r_eff, (n,) * r_eff
    )
    if group.invariant_factors != (n,) * (r_eff - 1):
        raise InternalInconsistency(
            f"Smith form gave {group.invariant_factors}, expected "
            f"{(n,) * (r_eff - 1)}; the presentation of the cokernel is wrong"
        )
    generators = []
    for t in range(r_eff - 1):
        label, gamma = labels[t]
        if orders[t] != n:
            raise InternalInconsistency(
                f"generator {t + 1} has order {orders[t]}, expected {n}"
            )
        generators.append(
            GeneratorInfo(
                pair=("z", label),
                order=orders[t],
                degree_z=inp.m,
                degree_h=n * gamma,
                image=images[t],
            )
        )
    relations = _relations(dctx, n)
    bad = [rel for rel in relations if not rel.identity_holds]
    if bad:
        raise InternalInconsistency(
            f"divisor-level relation check failed: {bad[0].divisor_identity}"
        )
    return ClassGroupResult(
        group=group,
        generators=tuple(generators),
        relations=relations,
        r=r_eff,
        mode=mode,
        report=report,
        context=dctx,
        x0_weight=x0_weight,
    )


def compute_class_group(
    inp: HypersurfaceInput, assume_normal: bool = False
) -> ClassGroupResult:
    """Class group (Z/n)^(r-1) of a validated hypersurface input."""
    report = validate_hypotheses(inp, assume_normal=assume_normal)
    return _assemble(inp, report, mode="hypersurface", x0_weight=None)


def choose_x0_weight(m_g: int, n: int) -> int:
    """Smallest positive weight c0 for the auxiliary variable with
    gcd(c0 + m_g, n) = 1."""
    c0 = 1
    while gcd(c0 + m_g, n) != 1:
        c0 += 1
        if c0 > 2 * n:
            raise InternalInconsistency("no valid x0 weight below 2n; impossible")
    return c0


def x0_extension_input(
    gring: WeightedRing,
    n: int,
    factors: list[WPolynomial],
    x0: str = "x0",
    g: WPolynomial | None = None,
) -> tuple[HypersurfaceInput, int]:
    """The input k[z, x0, x]/(z^n - x0 g), g = product(factors), and the weight of x0.

    The weight of x0 is chosen as the smallest positive c0 making
    deg(x0 g) = c0 + deg(g) coprime to n, so the main pipeline applies to the
    factorization (h_1, ..., h_r, x0).  Listing x0 last makes the generator
    classes exactly [(z, h_1)], ..., [(z, h_r)]; the class of (z, x0) is the
    one eliminated by the sum relation.  A declared g is compared with the
    product of the factors (ProductMismatch) by the same pass that checks
    their shapes, which then comes before the checks of n and x0.
    """
    degrees = factor_product(factors, gring, g)[1] if g is not None else None
    if n < 1:
        raise DegenerateInput(f"n must be >= 1, got {n}")
    if x0 in gring.variables:
        raise DegenerateInput(f"{x0!r} already used by the base ring")
    m_g = sum(degrees or check_factor_shapes(factors, gring))
    ring1, (m_g,) = normalize_weights(gring, (m_g,))
    c0 = choose_x0_weight(m_g, n)
    ring2 = WeightedRing(
        ring1.variables + (x0,), ring1.weights + (c0,), ring1.field
    )
    def lift(f: WPolynomial) -> WPolynomial:
        # x0 appended with exponent 0 to valid terms over the same field
        return WPolynomial._wrap(ring2, {exps + (0,): c for exps, c in f.terms.items()})
    x0_poly = WPolynomial.variable(ring2, ring2.d - 1)
    lifted = [lift(h) for h in factors] + [x0_poly]
    return HypersurfaceInput(validate_factorization(lifted, ring2, n), n), c0


def x0_extension_mode(
    gring: WeightedRing,
    n: int,
    factors: list[WPolynomial],
    x0: str = "x0",
    assume_normal: bool = False,
    g: WPolynomial | None = None,
) -> ClassGroupResult:
    """Class group (Z/n)^r of k[z, x0, x]/(z^n - x0 g), g = product(factors),
    on the input of `x0_extension_input`, which checks a declared g."""
    inp, c0 = x0_extension_input(gring, n, factors, x0, g)
    report = validate_hypotheses(inp, assume_normal=assume_normal)
    return _assemble(inp, report, mode="x0-extension", x0_weight=c0)
