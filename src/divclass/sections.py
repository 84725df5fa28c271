"""Global sections of integer divisors on X and their image inside R.

Everything here exploits the factoriality of the coordinate ring of X: a
section of O(E) is a form of c-degree deg(E) divided by the product of the
component forms raised to the coefficients of E.  Multiplying a section of
O(floor(E0 + jD)) by T^j with T = z^a x^b clears every denominator whenever
E0 <= 0 and lands in the degree-j piece of R.  Up to one scalar per piece,
every image is a shifted monomial times the factor powers a nonzero E0 leaves
behind, so images are computed as exponent shifts; the only polynomial
arithmetic is expanding those powers.  For E0 = 0 (the section ring itself)
none is left, and `verify_section_ring` checks R as that module.

A module is checked degree by degree for one E0.  The job keeps one
residue base on its context: for each residue r < n that a walk reaches,
floor(rD), its degree and the clearing data of the zero divisor, from one
`DivisorContext.floor_shift` and one `_clearing_data` call
(`_residue_base`).  Once per check, with L = lcm(n, den E0),
`_ResidueTable` applies the E0 <= 0 gate; it then keeps, for each residue
r = j mod L that a walk reaches, deg floor(E0 + rD) and the clearing data:
the offset, and the tail as the prepared row of `Subspace.prepared_row` or
None.  An entry is the base entry of r mod n corrected only where E0 is
nonzero, one registry index for E_t and n*E_t, so the 2r + 1 modules of a
verify share one floor and one clearing per residue.  Each residue is
filled on first use, so a walk to depth j fills at most j + 1 of the L
residues.  The table is kept on the job's context, one per E0.  Once per
degree, `divisorial_module_component` reads its residue's entry with one
divmod and one lookup (`_ResidueTable.fill` fills a missing one, for `at`
too), reads the monomials of its degree translated by the offset from the
cache of `shifted_monomials` and spans one piece: a set of monomials, or
the translates of the tail's row, which are already in echelon form and
come from the translate cache of `Subspace.shifted`.

Two exact identities make the base valid at every j of a class mod n.  n*D
is integral of degree 1, so floor(E0 + (j + n)D) = floor(E0 + jD) + nD for
every E0, and the degree grows by 1 per step of n (by L/n per period of a
table).  The clearing exponents q*g_P - E_P + b*j*s_P of the zero divisor
repeat with period n: n*D = a*g + n*b*s (built so in
`DivisorContext.__post_init__`), so one step changes them by
a*g_P - (nD)_P + n*b*s_P = 0.  A correction compares two floors that both
move by nD, so it too depends on j mod n only.  `DivisorContext.floor_shift`
and `_clearing_data` at j itself stay the per-degree reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import DegenerateInput, InternalInconsistency
from .linalg import MonomialSpace, Subspace
from .qdivisor import DivisorContext, QDivisor, integer_divisor_degree
from .wpoly import (
    count_monomials_of_degree,
    enumerate_monomials_of_degree,
    monomial_counts,
    shifted_monomials,
)


@dataclass(frozen=True)
class SectionSpace:
    """Basis of H0(X, O(E)) as the numerators of its sections.

    Each basis entry is the exponent tuple of a monomial mu of c-degree
    `degree`; the section is mu / prod_P form_P^{E_P}, with E indexed by
    registry position (a negative entry is really a numerator factor).
    """

    E: tuple[int, ...]
    degree: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def h0_basis(dctx: DivisorContext, E: tuple[int, ...]) -> SectionSpace:
    """Basis of H0(X, O(E)) for an integer divisor E over the registry."""
    if len(E) != len(dctx.components):
        raise DegenerateInput("divisor length does not match the registry")
    deg = integer_divisor_degree(dctx.registry, E)
    if deg < 0:
        return SectionSpace(E=tuple(E), degree=deg, basis=())
    basis = enumerate_monomials_of_degree(dctx.input.ring, deg)
    if len(basis) != count_monomials_of_degree(dctx.input.ring, deg):
        raise InternalInconsistency("monomial enumeration disagrees with its counter")
    return SectionSpace(E=tuple(E), degree=deg, basis=basis)


def _clearing_data(dctx: DivisorContext, denominators: tuple[int, ...], j: int):
    """Shared data for multiplying sections of O(E) by T^j, E = denominators.

    T = z^a x_1^{b s_1} ... x_d^{b s_d}; z^{aj} is rewritten as z^{aj mod n}
    times g^q with q = floor(aj/n), and g^q = c^q prod_P form_P^{q g_P} with c
    the product of the units of the variable factors.  A section
    mu / prod_P form_P^{E_P} therefore maps to z^{aj mod n} c^q x^{mu + offset}
    times a tail, where P has the exponent q g_P - E_P (plus b j s_i on the
    variable x_i): the variable exponents form the offset and the non-variable
    factor powers the tail.  c^q is dropped, because scaling every image of a
    piece by one nonzero constant leaves its span unchanged.  All exponents
    must come out nonnegative; a leftover denominator means the divisor did
    not come from a nonpositive E0 and is a bug here, not bad user input.
    Returns (offset, tail), with tail None when no factor power is left.
    """
    inp = dctx.input
    q = dctx.bez.a * j // inp.n
    bj = dctx.bez.b * j
    exps = [q * g - e for g, e in zip(dctx.g_exponents, denominators)]
    for i, s in enumerate(dctx.svec):
        exps[i] += bj * s
    for comp, e in zip(dctx.components, exps):
        if e < 0:
            raise InternalInconsistency(
                f"negative exponent {e} on {comp.label} while clearing T^{j}"
            )
    d = inp.ring.d
    tail = None
    for comp, e in zip(dctx.components[d:], exps[d:]):
        if e:
            power = comp.form**e
            tail = power if tail is None else tail * power
    return tuple(exps[:d]), tail


def _residue_base(dctx: DivisorContext, r: int) -> tuple:
    """Compute, keep and return the job's base entry of residue r < n.

    The entry is (floor(rD), its degree, offset, tail): the floor of
    `DivisorContext.floor_shift` on the zero divisor and the clearing data
    of `_clearing_data` at r.  Every residue table of the job starts from it
    (`_ResidueTable.fill`).
    """
    floor = dctx.floor_shift(dctx.zero_divisor(), r)
    offset, tail = _clearing_data(dctx, floor, r)
    entry = dctx.residue_base[r] = (
        floor, integer_divisor_degree(dctx.registry, floor), offset, tail
    )
    return entry


class _ResidueTable:
    """What a divisorial module of one E0 needs per residue class of j.

    For a residue r < L = lcm(n, den E0), `residues[r]` = (deg floor(E0 + rD),
    offset, row): the offset of `_clearing_data` at r and the prepared row
    of its tail over the job's field (None for no tail),
    `Subspace.prepared_row`, a frozenset of the canonical row's items, ready
    for `Subspace.shifted`.  A residue is filled by `fill` the first time a
    degree of its class is asked for, from the job's base entry of r mod n
    (`_residue_base`) corrected on the components where E0 is nonzero.  No
    correction can raise on an E0 <= 0: it only raises clearing exponents
    of the zero divisor, which `_clearing_data` checked nonnegative.
    """

    __slots__ = ("L", "period_degree", "residues", "corrections")

    def __init__(self, dctx: DivisorContext, E0: QDivisor):
        if max(E0.nums) > 0:
            raise DegenerateInput("divisorial modules are only computed for E0 <= 0")
        n = dctx.input.n
        self.L = lcm(n, E0.den)
        self.period_degree = self.L // n
        self.residues: dict = {}
        # (P, n*c, den*(nD)_P, den*n) where E0_P = c/den is nonzero, so that
        # floor(E0_P + r*D_P) = (n*c + r*den*(nD)_P) // (den*n)
        den = E0.den
        self.corrections = tuple(
            (P, n * c, den * d, den * n)
            for P, (c, d) in enumerate(zip(E0.nums, dctx.D.nums))
            if c
        )

    def fill(self, dctx: DivisorContext, r: int) -> tuple:
        """Compute, keep and return the entry of residue r.

        With r = periods*n + r0, floor(rD) is the base floor at r0 plus
        periods*nD, of degree one more per period, and the clearing data of
        the zero divisor repeat with period n.  Where E0_P is nonzero, E0
        lowers floor(rD)_P by e = floor(r0 D_P) - floor(E0_P + r0 D_P) >= 0
        (a step of n in r adds (nD)_P to both floors).  That lowers the
        degree by e*cdeg(P) and raises P's clearing exponent by e: in the
        offset for a variable, as the factor power form_P^e in the tail
        otherwise.
        """
        periods, r0 = divmod(r, dctx.input.n)
        floor, degree, offset, tail = dctx.residue_base.get(r0) or _residue_base(dctx, r0)
        degree += periods
        if self.corrections:
            offset = list(offset)
            d = len(offset)
            cdegrees = dctx.registry.cdegrees
            for P, num, step, den in self.corrections:
                e = floor[P] - (num + r0 * step) // den
                if e:
                    degree -= e * cdegrees[P]
                    if P < d:
                        offset[P] += e
                    else:
                        power = dctx.components[P].form**e
                        tail = power if tail is None else tail * power
            offset = tuple(offset)
        row = None if tail is None else Subspace.prepared_row(dctx.input.field, tail.terms)
        entry = self.residues[r] = (degree, offset, row)
        return entry

    def at(self, dctx: DivisorContext, j: int) -> tuple:
        """deg floor(E0 + j*D), the offset and the row at j."""
        periods, r = divmod(j, self.L)
        degree, offset, row = self.residues.get(r) or self.fill(dctx, r)
        return degree + periods * self.period_degree, offset, row


def _residue_table(dctx: DivisorContext, E0: QDivisor) -> _ResidueTable:
    """E0's table, built on first use and kept on the context.

    The key is (E0.den, E0.nums): E_t and n*E_t share their nums and differ
    only in den.
    """
    key = (E0.den, E0.nums)
    table = dctx.module_tables.get(key)
    if table is None:
        table = dctx.module_tables[key] = _ResidueTable(dctx, E0)
    return table


def divisorial_module_component(
    dctx: DivisorContext, E0: QDivisor, j: int
) -> Subspace | MonomialSpace:
    """Degree-j piece of the module H0(O(floor(E0 + jD))) T^j inside R.

    Only nonpositive E0 are supported; these are the divisors whose modules
    are honest ideals of R (E_t, n E_t, sums of E_t, and 0 itself).  The
    degree of the floor and the clearing data come from the entry of j's
    residue in E0's table, read without `_ResidueTable.at`.
    The images of the sections are the numerators mu shifted by the clearing
    offset (`shifted_monomials`, a cached translate).  The
    piece is that set of monomials when clearing leaves no factor power
    behind, and otherwise the span of the translates x^(mu + offset) * tail
    (`Subspace.shifted` on the table's prepared row of the tail, whose
    translate cache the ideal pieces of `hyperring` share: the module of
    n*E_t and h_t R often translate equal rows by one key set).
    """
    table = _residue_table(dctx, E0)
    periods, r = divmod(j, table.L)
    deg, offset, tail = table.residues.get(r) or table.fill(dctx, r)
    deg += periods * table.period_degree
    ring = dctx.input.ring
    field = ring.field
    if deg < 0:
        return MonomialSpace(field)
    images = shifted_monomials(ring.weights, deg, offset)
    if not images:
        return MonomialSpace(field)
    if tail is None:
        return Subspace.unit_space(field, images)
    return Subspace.shifted(field, tail, images)


@dataclass(frozen=True)
class SectionRingReport:
    depth: int
    checked: int
    mismatches: tuple[str, ...]

    @property
    def all_match(self) -> bool:
        return not self.mismatches


def verify_section_ring(dctx: DivisorContext, depth: int) -> SectionRingReport:
    """Check R = section ring of (X, D) degree by degree up to `depth`.

    R is the E0 = 0 case of the divisorial modules, so for each j the piece
    `divisorial_module_component` of the zero divisor must be R_j: with
    j = u m + v n, the set of all monomials of c-degree v.  Each j is split
    once, from m^{-1} mod n as in `ideal_graded_component`.  A step of n in
    j keeps u and adds one to v and to deg floor(jD), so deg floor(jD) = v
    is asserted once per class j mod n, at the class's first j <= depth
    with v >= 0, from the residue table of the zero divisor; the piece of
    each degree then reads its entry once.  The set of c-degree v is the key
    set of `shifted_monomials` at a zero offset, built once per v and shared
    with a piece that lands on it, and its size is checked against one
    table of monomial counts for every v <= depth // n (`monomial_counts`).
    The piece keeps only the x-exponents of its images; the z-exponent it
    drops is aj mod n, and a m = 1 (mod n), which `BezoutPair` checks, makes
    that the u of the degree split, so nothing is lost.  floor(jD) has
    coefficient floor(aj/n) on every non-variable factor, exactly that
    factor's power in g^floor(aj/n), so clearing never leaves a factor power
    behind; a piece that is not a set of monomials raises
    InternalInconsistency.
    """
    inp = dctx.input
    ring, n, m = inp.ring, inp.n, inp.m
    # set, since the context's Bezout pair needs gcd(m, n) = 1
    m_inv = inp.m_inv
    field = ring.field
    weights = ring.weights
    zero = dctx.zero_divisor()
    table = _residue_table(dctx, zero)
    for r in range(min(n, depth + 1)):
        u = r * m_inv % n
        v = (r - u * m) // n
        j = r - n * min(v, 0)
        if j <= depth:
            deg = table.at(dctx, j)[0]
            if deg != max(v, 0):
                raise InternalInconsistency(
                    f"deg floor({j}D) = {deg} but the degree split gives v = {max(v, 0)}"
                )
    counts = monomial_counts(ring, depth // n)
    origin = (0,) * len(weights)
    empty = MonomialSpace(field)
    mismatches = []
    for j in range(depth + 1):
        u = j * m_inv % n
        v = (j - u * m) // n
        images = divisorial_module_component(dctx, zero, j)
        if not isinstance(images, MonomialSpace):
            raise InternalInconsistency(
                f"floor({j}D) left a factor power behind while clearing T^{j}"
            )
        if v < 0:
            expected = empty
        else:
            expected = MonomialSpace(field, shifted_monomials(weights, v, origin))
            if expected.dim != counts[v]:
                raise InternalInconsistency("monomial enumeration disagrees with its counter")
        if not images == expected:  # one `==` dispatch, where `!=` takes two
            mismatches.append(
                f"j={j}: section images {sorted(images.keys)} != ring basis {sorted(expected.keys)}"
            )
    return SectionRingReport(depth=depth, checked=depth + 1, mismatches=tuple(mismatches))
