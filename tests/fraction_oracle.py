"""Slow reference paths for the fraction-free kernel of `exactmat` and the
degree-one theta path of `thetaser`, as they were before them.

* `gauss_jordan` reduces `Fraction` rows to reduced echelon form, and
  `rational_inverse` and `solve_right` read the inverse and the solution
  with free variables 0 off it; `det_bareiss` is the determinant by
  forward-only Bareiss elimination.  The package now runs one fraction-free
  Gauss-Jordan pass over Python ints for all three.
* `theta1_value` reads the minimum from `min_positive` (one enumeration per
  doubling of its bound), walks the truncation bound 1, 2, 3, 4, 6, 9, ...
  with one `_packing_tail` call per step (`tail_bound`) and enumerates once
  more at the bound found; `inversion_check` inverts the Gram once for the level and
  once more for the dual.  The package enumerates once, at a bound certified
  by the exact pivots, and makes two `_packing_tail` calls per bound.

They serve only as differential oracles on small inputs.
"""

import cmath
import math
from fractions import Fraction

from paramodular.errors import DimensionMismatch, NotInHalfSpace, SingularMatrix, TailTooLarge
from paramodular.exactmat import Mat, clear_denominators
from paramodular.quadlat import QuadLattice, shell_counts
from paramodular.thetaser import _packing_tail


def gauss_jordan(m, nc: int) -> list[int]:
    """Reduce the Fraction rows m in place to reduced echelon form over
    their first nc columns; returns the pivot columns."""
    nr = len(m)
    pivots = []
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        pr = m[r][c:] = [x * inv for x in m[r][c:]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i][c:] = [a - f * b for a, b in zip(m[i][c:], pr)]
        pivots.append(c)
        r += 1
    return pivots


def det_bareiss(m: list[list[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def det(A: Mat):
    if A.is_integral():
        return det_bareiss([list(r) for r in A.rows])
    m, c = clear_denominators(A.rows)
    return Fraction(det_bareiss(m), c ** A.nrows)


def rational_inverse(A: Mat) -> Mat:
    if not A.is_square():
        raise DimensionMismatch("inverse of non-square matrix")
    n = A.nrows
    m = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(A.rows)]
    if len(gauss_jordan(m, n)) < n:
        raise SingularMatrix("matrix is singular")
    return Mat([row[n:] for row in m])


def solve_right(A: Mat, b) -> tuple | None:
    nc = A.ncols
    m = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A.rows)]
    pivots = gauss_jordan(m, nc)
    if any(row[nc] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = m[i][nc]
    return tuple(int(v) if v.denominator == 1 else v for v in x)


def level(L: QuadLattice) -> int:
    inv = rational_inverse(L.gram)
    N = clear_denominators(inv.rows)[1]
    scaled = inv.scale(N)
    if any(scaled[i, i] % 2 for i in range(L.rank)):
        N *= 2
    return N


def tail_bound(mn: int, rank: int, rate: float, tail_tol: float) -> int:
    B = 1
    while True:
        t = _packing_tail([(mn, rank)], B, rate)
        if t < tail_tol:
            return B
        B += max(1, B // 2)
        if B > 10**6:
            raise TailTooLarge("cannot certify the tail at this point")


def theta1_value(L: QuadLattice, z: complex, tail_tol: float = 1e-12,
                 budget: int = 200 * 10**6) -> complex:
    y = z.imag
    if y <= 0:
        raise NotInHalfSpace("z must have positive imaginary part")
    rate = 2 * math.pi * y
    B = tail_bound(L.min_positive(), L.rank, rate, tail_tol)
    counts = shell_counts(L, B, budget)
    return sum(c * cmath.exp(2j * math.pi * q * z) for q, c in counts.items())


def inversion_check(L: QuadLattice, z: complex, tol: float = 1e-8) -> bool:
    if z.imag <= 0:
        raise NotInHalfSpace("z must be in the upper half plane")
    N = level(L)
    dual_scaled = QuadLattice(rational_inverse(L.gram).scale(N))
    w = -1 / z
    lhs = theta1_value(dual_scaled, w / N)
    root = cmath.sqrt(z / 1j)
    rhs = root ** L.rank * math.sqrt(L.disc()) * theta1_value(L, z)
    return abs(lhs - rhs) <= tol * max(1.0, abs(rhs))
