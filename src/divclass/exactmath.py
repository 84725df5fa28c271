"""Exact integer arithmetic: extended gcd, Smith normal form, finite abelian cokernels.

Everything here works on plain Python ints (arbitrary precision) and small
lists of lists; no numerics.  The Smith normal form keeps track of the
unimodular row and column transforms so callers can push generators through
the normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DegenerateInput


def xgcd(m: int, n: int) -> tuple[int, int, int]:
    """Return (g, a, b) with a*m + b*n = g = gcd(|m|, |n|) > 0."""
    if m == 0 and n == 0:
        raise DegenerateInput("xgcd(0, 0) is undefined")
    old_r, r = m, n
    old_a, a = 1, 0
    old_b, b = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_a, a = a, old_a - q * a
        old_b, b = b, old_b - q * b
    if old_r < 0:
        old_r, old_a, old_b = -old_r, -old_a, -old_b
    return old_r, old_a, old_b


@dataclass(frozen=True)
class BezoutPair:
    """Integers a, b with a*m + b*n = 1 and a canonical (1 <= a <= n-1 for n >= 2).

    For n = 1 the canonical range is empty, so (a, b) = (0, 1) is used; the
    identity still holds and downstream divisors come out integral.
    """

    a: int
    b: int
    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DegenerateInput(f"BezoutPair needs positive m, n; got ({self.m}, {self.n})")
        if self.a * self.m + self.b * self.n != 1:
            raise DegenerateInput("BezoutPair identity a*m + b*n = 1 violated")
        if self.n >= 2 and not (1 <= self.a <= self.n - 1):
            raise DegenerateInput(f"a = {self.a} not canonical for n = {self.n}")

    @staticmethod
    def make(m: int, n: int) -> "BezoutPair":
        if m < 1 or n < 1:
            raise DegenerateInput(f"BezoutPair needs positive m, n; got ({m}, {n})")
        g, a0, _ = xgcd(m, n)
        if g != 1:
            raise DegenerateInput(f"gcd({m}, {n}) = {g} != 1")
        if n == 1:
            return BezoutPair(0, 1, m, 1)
        a = a0 % n
        b = (1 - a * m) // n
        return BezoutPair(a, b, m, n)


def bezout_vector(c: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Integer vector s with sum(s_i * c_i) = gcd(c), by left-folding xgcd.

    Once the running gcd reaches 1 the remaining coefficients are zero, so
    bezout_vector((1, 1)) = (1, 0) rather than (0, 1).
    """
    if len(c) == 0:
        raise DegenerateInput("bezout_vector needs a nonempty vector")
    for ci in c:
        if ci < 1:
            raise DegenerateInput(f"weights must be positive, got {ci}")
    s = [1]
    g = c[0]
    for ci in c[1:]:
        if g == 1:
            s.append(0)
            continue
        g2, alpha, beta = xgcd(g, ci)
        s = [si * alpha for si in s]
        s.append(beta)
        g = g2
    return tuple(s)


def _identity(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def integer_determinant(M: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free elimination)."""
    k = len(M)
    if k == 0:
        return 1
    A = [row[:] for row in M]
    sign = 1
    prev = 1
    for col in range(k - 1):
        pivot_row = next((r for r in range(col, k) if A[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            A[col], A[pivot_row] = A[pivot_row], A[col]
            sign = -sign
        for r in range(col + 1, k):
            for c in range(col + 1, k):
                A[r][c] = (A[col][col] * A[r][c] - A[r][col] * A[col][c]) // prev
            A[r][col] = 0
        prev = A[col][col]
    return sign * A[k - 1][k - 1]


def smith_normal_form(
    M: list[list[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form: returns (U, S, V) with U*M*V = S.

    S is diagonal with nonnegative entries and d_i | d_{i+1}; U and V are
    unimodular.  Works on any rectangular integer matrix, including empty
    ones.  Every change is one 2x2 unimodular combination of two rows (of S
    and U) or of two columns (of S and V).  For each t, a nonzero entry of
    least magnitude is swapped to (t, t); each entry b of its row and column
    is then cleared against the pivot a in one step, by a plain subtraction
    when a | b and otherwise by (x, y, -b/g, a/g) with x*a + y*b = g, which
    makes g the new, strictly smaller pivot.  A trailing entry that the
    pivot does not divide has its row added into row t, and the clearing
    repeats.  Because the pivot only shrinks, the loop ends, and the
    cofactors of each step are bounded by the entries it clears, which keeps
    U and V small.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    S = [row[:] for row in M]
    U = _identity(rows)
    V = _identity(cols)

    def rows_step(i, j, x, y, u, v):
        # (row i, row j) <- (x*row i + y*row j, u*row i + v*row j)
        for A in (S, U):
            A[i], A[j] = ([x * p + y * q for p, q in zip(A[i], A[j])],
                          [u * p + v * q for p, q in zip(A[i], A[j])])

    def cols_step(i, j, x, y, u, v):
        for A in (S, V):
            for row in A:
                row[i], row[j] = x * row[i] + y * row[j], u * row[i] + v * row[j]

    def clearing(a, b):
        # unimodular (x, y, u, v) taking (a, b) to (g, 0), a != 0
        if b % a == 0:
            return 1, 0, -(b // a), 1
        g, x, y = xgcd(a, b)
        return x, y, -(b // g), a // g

    for t in range(min(rows, cols)):
        block = [(abs(S[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if S[i][j]]
        if not block:
            break
        _, i, j = min(block)
        if i != t:
            rows_step(t, i, 0, 1, 1, 0)
        if j != t:
            cols_step(t, j, 0, 1, 1, 0)
        while True:
            while any(S[i][t] for i in range(t + 1, rows)) or any(S[t][t + 1:]):
                for i in range(t + 1, rows):
                    if S[i][t]:
                        rows_step(t, i, *clearing(S[t][t], S[i][t]))
                for j in range(t + 1, cols):
                    if S[t][j]:
                        cols_step(t, j, *clearing(S[t][t], S[t][j]))
            offender = next((i for i in range(t + 1, rows)
                             if any(s % S[t][t] for s in S[i][t + 1:])), None)
            if offender is None:
                break
            rows_step(t, offender, 1, 1, 0, 1)
        if S[t][t] < 0:
            S[t][t] = -S[t][t]
            U[t] = [-x for x in U[t]]
    return U, S, V


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group in invariant-factor form d_1 | d_2 | ... (all >= 2)."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = self.invariant_factors
        for d in fs:
            if d < 2:
                raise DegenerateInput(f"invariant factor {d} < 2")
        for x, y in zip(fs, fs[1:]):
            if y % x != 0:
                raise DegenerateInput(f"invariant factors not a divisibility chain: {fs}")

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "trivial"
        parts = []
        fs = list(self.invariant_factors)
        while fs:
            d = fs[0]
            k = fs.count(d)
            fs = fs[k:]
            parts.append(f"Z/{d}" if k == 1 else f"(Z/{d})^{k}")
        return " x ".join(parts)


def group_from_diagonal(diag: list[int]) -> FiniteAbelianGroup:
    """Invariant factors from an SNF diagonal: drop units, keep entries >= 2.

    A zero on the diagonal would mean a free summand; callers here always
    present finite groups, so zero raises.
    """
    factors = []
    for d in diag:
        if d == 0:
            raise DegenerateInput("presentation has a free summand; group is not finite")
        if d > 1:
            factors.append(d)
    return FiniteAbelianGroup(tuple(factors))


def _alpha_presentation(numerators, moduli) -> list[list[int]]:
    r = len(moduli)
    M = [[0] * (r + 1) for _ in range(r)]
    for i, q in enumerate(moduli):
        if q < 1:
            raise DegenerateInput(f"moduli must be >= 1, got {q}")
        M[i][i] = q
    for i, p in enumerate(numerators):
        M[i][r] = p
    return M


def cokernel_with_generator_images(numerators, moduli):
    """Cokernel of Z -> (+) Z/q_i, 1 |-> (p_i mod q_i), with generator images.

    The group is presented by the r x (r+1) matrix whose columns are q_i * e_i
    and (p_1, ..., p_r), and read off its Smith normal form in
    invariant-factor form.  Returns (group, images, orders) where images[t]
    is the coordinate vector of the standard generator e_t in (+) Z/d_i and
    orders[t] its order in the cokernel.
    """
    if len(numerators) != len(moduli):
        raise DegenerateInput("numerators and moduli must have the same length")
    r = len(moduli)
    if r == 0:
        return FiniteAbelianGroup(()), [], []
    U, S, _ = smith_normal_form(_alpha_presentation(numerators, moduli))
    diag = [S[i][i] for i in range(r)]
    group = group_from_diagonal(diag)
    kept = [i for i, d in enumerate(diag) if d > 1]
    images = []
    orders = []
    for t in range(r):
        col = [U[i][t] for i in range(r)]
        image = tuple(col[i] % diag[i] for i in kept)
        images.append(image)
        o = 1
        for i, di in zip(kept, [diag[i] for i in kept]):
            c = col[i] % di
            o = o * (di // gcd(di, c)) // gcd(o, di // gcd(di, c))
        orders.append(o)
    return group, images, orders


# small number-theoretic helpers used by the factor counting

# The least strong pseudoprime to all of the first 13 prime bases (Sorenson
# and Webster, 2015): Miller-Rabin with these bases is exact below it.
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n >= PRIME_TEST_BOUND is refused."""
    if n >= PRIME_TEST_BOUND:
        raise DegenerateInput(f"primality is decided only below {PRIME_TEST_BOUND}, got {n}")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for the sizes used here."""
    if n < 1:
        raise DegenerateInput(f"factorize needs n >= 1, got {n}")
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def multiplicative_order(a: int, n: int) -> int:
    """Order of a modulo n; requires gcd(a, n) = 1."""
    a %= n
    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise DegenerateInput(f"{a} is not a unit mod {n}")
    for d in divisors(euler_phi(n)):
        if pow(a, d, n) == 1:
            return d
    raise DegenerateInput("unreachable: order must divide phi(n)")
