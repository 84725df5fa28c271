"""The benchmark's own exact arithmetic, written without importing divclass.

Every expected answer the benchmark checks against comes from here: weighted
degrees, products of sparse polynomials, root tests for binary forms, the
number of irreducible factors of 1 + t^c counted as Frobenius or Galois
orbits of its roots, graded dimensions of k[z, x]/(z^n - g), and integer
determinants, ranks and minors for the Smith-form certificate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


# ---------------------------------------------------------------------------
# sparse polynomials: dict exponent tuple -> coefficient; p = 0 means Q


def poly_mul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    if p:
        return {k: c % p for k, c in out.items() if c % p}
    return {k: c for k, c in out.items() if c}


def poly_product(polys: list[dict], p: int) -> dict:
    acc = polys[0]
    for f in polys[1:]:
        acc = poly_mul(acc, f, p)
    return acc


def weighted_degree(f: dict, weights: tuple[int, ...]) -> int:
    exps = next(iter(f))
    return sum(e * w for e, w in zip(exps, weights))


def render(f: dict, names: tuple[str, ...]) -> str:
    """Expression text for the job file, terms in descending exponent order."""
    out = []
    for exps in sorted(f, reverse=True):
        c = f[exps]
        body = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, exps)
            if e
        )
        mag = abs(c)
        term = body if mag == 1 and body else (f"{mag}*{body}" if body else str(mag))
        if not out:
            out.append(("-" if c < 0 else "") + term)
        else:
            out.append((" - " if c < 0 else " + ") + term)
    return "".join(out)


def binary_form(coeffs: list[int], c1: int, c2: int) -> dict:
    """sum_k a_k x1^(k c2) x2^(c1 (K - k)) for coprime reduced weights (c1, c2).

    The form has weighted degree K c1 c2 (times the weight gcd) and is
    irreducible exactly when sum_k a_k s^k is.
    """
    K = len(coeffs) - 1
    return {(k * c2, c1 * (K - k)): a for k, a in enumerate(coeffs) if a}


# ---------------------------------------------------------------------------
# univariate root tests (enough for irreducibility up to degree 3)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def has_root(coeffs: list[int], p: int) -> bool:
    """True when sum_k a_k s^k has a root in Q (p = 0) or in F_p."""
    if p:
        return any(
            sum(a * pow(s, k, p) for k, a in enumerate(coeffs)) % p == 0
            for s in range(p)
        )
    if coeffs[0] == 0:
        return True
    for num in _divisors(coeffs[0]):
        for den in _divisors(coeffs[-1]):
            for s in (Fraction(num, den), Fraction(-num, den)):
                if sum(a * s**k for k, a in enumerate(coeffs)) == 0:
                    return True
    return False


def proportional(f: dict, g: dict, p: int) -> bool:
    if set(f) != set(g):
        return False
    k = next(iter(f))
    if p:
        ratio = f[k] * pow(g[k], p - 2, p) % p
        return all((f[e] - ratio * g[e]) % p == 0 for e in f)
    ratio = Fraction(f[k], g[k])
    return all(Fraction(f[e], g[e]) == ratio for e in f)


# ---------------------------------------------------------------------------
# irreducible factors of 1 + t^c, counted as orbits of roots


def _orbit_count(points: list[int], modulus: int, multipliers: list[int]) -> int:
    seen: set = set()
    orbits = 0
    for x in points:
        if x in seen:
            continue
        orbits += 1
        stack = [x]
        seen.add(x)
        while stack:
            y = stack.pop()
            for u in multipliers:
                z = y * u % modulus
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return orbits


def one_plus_tc_factor_count(c: int, p: int, closed: bool) -> int:
    """Distinct irreducible factors of 1 + t^c over Q, F_p or their closures.

    The roots are zeta^k for a primitive 2c-th root of unity zeta and odd k
    (c-th roots of unity when p = 2, where 1 + t^c = 1 - t^c).  Factors over
    the base field are the orbits of the exponents under the Galois group:
    all units mod 2c over Q, powers of p (Frobenius) over F_p.  In
    characteristic p only the p-free part of c contributes distinct roots.
    """
    if p:
        while c % p == 0:
            c //= p
    if closed:
        return c
    if p == 2:
        return _orbit_count(list(range(c)), c, [2])
    modulus = 2 * c
    odd = list(range(1, modulus, 2))
    if p:
        return _orbit_count(odd, modulus, [p % modulus])
    units = [u for u in range(1, modulus) if gcd(u, modulus) == 1]
    return _orbit_count(odd, modulus, units)


# ---------------------------------------------------------------------------
# graded dimensions of R = k[z, x]/(z^n - g), deg z = m, deg x_i = n c_i


def monomial_counts(weights: tuple[int, ...], top: int) -> list[int]:
    """Number of exponent vectors of each weighted degree 0..top."""
    counts = [1] + [0] * top
    for w in weights:
        for v in range(w, top + 1):
            counts[v] += counts[v - w]
    return counts


def graded_dims(weights: tuple[int, ...], n: int, m: int, depth: int) -> list[int]:
    """dim R_j for j = 0..depth; R_j has basis z^u mu with u m + n deg(mu) = j."""
    counts = monomial_counts(weights, depth // n)
    dims = [0] * (depth + 1)
    for u in range(n):
        for v in range(len(counts)):
            j = u * m + n * v
            if j > depth:
                break
            dims[j] += counts[v]
    return dims


# ---------------------------------------------------------------------------
# integer matrices


def mat_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def determinant(M: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination with row pivoting."""
    k = len(M)
    if k == 0:
        return 1
    A = [row[:] for row in M]
    sign, prev = 1, 1
    for col in range(k - 1):
        pivot = next((r for r in range(col, k) if A[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            A[col], A[pivot] = A[pivot], A[col]
            sign = -sign
        for r in range(col + 1, k):
            for c in range(col + 1, k):
                A[r][c] = (A[col][col] * A[r][c] - A[r][col] * A[col][c]) // prev
            A[r][col] = 0
        prev = A[col][col]
    return sign * A[k - 1][k - 1]


def rank(M: list[list[int]]) -> int:
    A = [[Fraction(x) for x in row] for row in M]
    r = 0
    cols = len(A[0]) if A else 0
    for col in range(cols):
        pivot = next((i for i in range(r, len(A)) if A[i][col]), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        for i in range(r + 1, len(A)):
            q = A[i][col] / A[r][col]
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
        r += 1
    return r


def smith_invariants(M: list[list[int]]) -> tuple[int, int, int]:
    """(rank, d_1, d_1 * ... * d_rank) from determinantal divisors of M.

    d_1 is the gcd of the entries and the product of the nonzero invariant
    factors is the gcd of the rank-size minors; with a unimodular
    certificate these pin the Smith form down.
    """
    r = rank(M)
    if r == 0:
        return 0, 0, 1
    d1 = 0
    for row in M:
        for x in row:
            d1 = gcd(d1, x)
    top = 0
    for rows in combinations(range(len(M)), r):
        for cols in combinations(range(len(M[0])), r):
            top = gcd(top, determinant([[M[i][j] for j in cols] for i in rows]))
            if top == d1**r:
                return r, d1, top
    return r, d1, top
