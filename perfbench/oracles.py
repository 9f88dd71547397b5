"""Reference computations for the benchmark's checks.

Everything here is derived from the mathematics of the objects, never from
the package under test: this module imports nothing from ``paramodular``.
Matrices are lists of integer rows; arithmetic is exact (int / Fraction).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt

# |O(E8)| = |W(E8)|.
E8_AUT_ORDER = 696729600

# Automorphism group orders of the small root lattices used as inputs.
AUT_ORDERS = {
    "A1": 2,
    "A1A1": 8,
    "A2": 12,
    "A1A1A1": 48,
    "A3": 48,
    "A1A2": 24,
    "A1^4": 384,
    "D4": 1152,
    "E8": E8_AUT_ORDER,
}

# Doubled Gram matrices (Cartan matrices) of the same lattices.
ROOT_GRAMS = {
    "A1": [[2]],
    "A1A1": [[2, 0], [0, 2]],
    "A2": [[2, -1], [-1, 2]],
    "A1A1A1": [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "A1A2": [[2, 0, 0], [0, 2, -1], [0, -1, 2]],
    "A1^4": [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}


# ---------------------------------------------------------------------------
# Theta series with closed forms.
# ---------------------------------------------------------------------------


def sigma3(n: int) -> int:
    return sum(d**3 for d in range(1, n + 1) if n % d == 0)


def e8_count(q: int) -> int:
    """Vectors of norm Q = q in E8: the weight-4 Eisenstein series."""
    return 1 if q == 0 else 240 * sigma3(q)


def e8_two_scaled_count(q: int) -> int:
    """Vectors of norm q in a 2-modular member K of the (1, 2) chain: K with
    its form halved is even unimodular of rank 8, hence E8."""
    if q % 2:
        return 0
    return e8_count(q // 2)


def singular_subspace_count() -> int:
    """Maximal totally singular subspaces of E8/2E8, a split quadratic space
    of dimension 8 over F2: prod_{i=0}^{3} (2^i + 1)."""
    out = 1
    for i in range(4):
        out *= 2**i + 1
    return out


# ---------------------------------------------------------------------------
# Local Hecke combinatorics.
# ---------------------------------------------------------------------------


def neighbor_count(p: int, n1: int, n2: int) -> int:
    """Index-p neighbors of a lattice with n1 unimodular and n2 p-modular
    hyperbolic planes: the closed formula, evaluated here independently."""
    q1 = p ** (2 * n1) - 1
    q2 = p ** (2 * n2) - 1
    num = p * q1 * q2 + p * (p - 1) * p ** (2 * n1) * q2 \
        + p * (p - 1) * p ** (2 * n2) * q1
    return num // (p - 1) ** 2


def _increasing(length: int, total: int, lo: int):
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(lo, total + 1):
        for rest in _increasing(length - 1, total - first, first):
            yield (first,) + rest


def hecke_tuples(a: int, b: int, j: int) -> set[tuple[int, tuple[int, ...]]]:
    """Invariant tuples (r, mu) of T(p^j) at shape (a, b): mu splits into
    segments of lengths r, a - r, r, b - r, each weakly increasing, the first
    with entries >= 1, and the entries sum to j."""
    out = set()
    for r in range(min(a, b) + 1):
        lens = (r, a - r, r, b - r)
        for split in product(range(j + 1), repeat=4):
            if sum(split) != j:
                continue
            segs = [list(_increasing(lens[t], split[t], 1 if t == 0 else 0))
                    for t in range(4)]
            for parts in product(*segs):
                out.add((r, sum(parts, ())))
    return out


# ---------------------------------------------------------------------------
# Exact matrices.
# ---------------------------------------------------------------------------


def matmul(A, B):
    Bt = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) for col in Bt] for row in A]


def transpose(A):
    return [list(r) for r in zip(*A)]


def det(rows) -> Fraction:
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return out


def inverse(rows) -> list[list[Fraction]]:
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k])
        m[k], m[piv] = m[piv], m[k]
        inv = 1 / m[k][k]
        m[k] = [x * inv for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [r[n:] for r in m]


def is_integral(rows) -> bool:
    return all(Fraction(x).denominator == 1 for r in rows for x in r)


def minors_gcd(rows, k: int) -> int:
    """gcd of the k x k minors: the product of the first k elementary
    divisors of an integer matrix."""
    g = 0
    ncols = len(rows[0])
    for ri in combinations(range(len(rows)), k):
        for ci in combinations(range(ncols), k):
            g = gcd(g, int(det([[rows[i][j] for j in ci] for i in ri])))
            if g == 1:
                return 1
    return g


# ---------------------------------------------------------------------------
# Short vectors.
# ---------------------------------------------------------------------------


def norm(gram, x) -> int:
    """Q(x) for the doubled Gram matrix."""
    n = len(gram)
    return sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n)) // 2


def box_shell_counts(gram, bound: int) -> dict[int, int]:
    """Counts {q: #x with Q(x) = q <= bound} by scanning the coordinate box
    |x_i| <= sqrt(2 bound (G^-1)_ii), which contains the whole ellipsoid."""
    n = len(gram)
    ginv = inverse(gram)
    radii = [isqrt(int(2 * bound * ginv[i][i])) + 1 for i in range(n)]
    counts: dict[int, int] = {}
    for x in product(*[range(-r, r + 1) for r in radii]):
        q = norm(gram, x)
        if q <= bound:
            counts[q] = counts.get(q, 0) + 1
    return counts


def lll_gram(gram, delta: Fraction = Fraction(3, 4)):
    """LLL reduction acting on a Gram matrix only (Cohen, Alg. 2.6.7 in the
    Gram form), exact in Fractions; returns the reduced integer Gram."""
    n = len(gram)
    G = [list(r) for r in gram]

    def gso():
        mu = [[Fraction(0)] * n for _ in range(n)]
        B = [Fraction(0)] * n
        for i in range(n):
            for j in range(i):
                mu[i][j] = (G[i][j] - sum(mu[j][k] * mu[i][k] * B[k]
                                          for k in range(j))) / B[j]
            B[i] = G[i][i] - sum(mu[i][k] ** 2 * B[k] for k in range(i))
        return mu, B

    k = 1
    while k < n:
        mu, B = gso()
        for j in range(k - 1, -1, -1):
            c = round(mu[k][j])
            if c:
                _sub(G, k, j, c)
                mu, B = gso()
        if B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            G[k], G[k - 1] = G[k - 1], G[k]
            for r in G:
                r[k], r[k - 1] = r[k - 1], r[k]
            k = max(k - 1, 1)
    return G


def _sub(G, i, j, c):
    """Basis change b_i <- b_i - c b_j applied to the Gram matrix G."""
    n = len(G)
    gjj = G[j][j]
    gij = G[i][j]
    row = [G[i][t] - c * G[j][t] for t in range(n)]
    row[i] = G[i][i] - 2 * c * gij + c * c * gjj
    for t in range(n):
        G[i][t] = row[t]
        G[t][i] = row[t]


def exact_shell_counts(gram, bound: int) -> dict[int, int]:
    """Shell counts of any positive definite Gram: reduce, then scan a box."""
    return box_shell_counts(lll_gram(gram), bound)
