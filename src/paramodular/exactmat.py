"""Exact integer and rational matrix arithmetic.

Everything downstream (lattice reduction, Hecke enumeration, Garrett
representatives) is built on the routines here.  Entries are Python ints or
``fractions.Fraction``; there is no floating point in this module, and numpy
appears only in ``Mat.to_numpy``, the int64 hand-off to the enumerators, and
in ``echelon_mod``.

Conventions:

* ``smith_normal_form(A)`` returns ``(U, D, V)`` with ``U @ A @ V == D``,
  ``U, V`` unimodular, ``D`` diagonal with nonnegative entries ``d_i | d_{i+1}``.
* ``hermite_normal_form(A)`` is row style: ``U @ A == H`` with ``U`` unimodular,
  ``H`` in row echelon form, pivots positive, entries above a pivot reduced
  into ``[0, pivot)``, zero rows at the bottom.

This module is the package's one exact kernel (Cohen, *A Course in
Computational Algebraic Number Theory*, sections 2.1-2.4); no other module
factors, eliminates or computes elementary divisors:

* ``factor``, ``is_prime`` and ``valuation``: trial division up to 2^10 and
  Pollard's rho beyond, a Miller-Rabin prime test that is deterministic
  below 3.3 * 10^24 and raises above it unless it finds n composite, and
  p-adic valuation;
* one Smith elimination, ``_snf_inplace``, with optional transforms, behind
  ``smith_normal_form`` and ``smith_divisors``;
* one Hermite elimination, ``_hnf_inplace``;
* one fraction-free Gauss-Jordan elimination over Python ints,
  ``_eliminate`` (Bareiss 1968), behind ``Mat.det``, ``leading_minors``,
  ``rational_inverse`` and ``solve_right``: rational input is scaled to
  integers first, and a solution is divided by the last pivot once at the end;
* ``lll_gram``: the integral LLL reduction of a positive definite Gram
  (Cohen 2.6.7), exact in Python ints, with its unimodular transform and
  leading minors;
* ``echelon_mod``: the reduced echelon forms mod a prime of a whole stack
  of matrices, and ``_projective_vectors``: the points of F_p^n in the same
  normalization;
* ``matmul_int`` and ``pairing_int``: integer products of plain row lists.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import gcd, lcm
from operator import mul

import numpy as np

from .errors import (
    DimensionMismatch,
    IntegralityViolation,
    NotPositiveDefinite,
    NotSupported,
    PrimalityUnproven,
    ScaleLimit,
    SingularMatrix,
)

Scalar = int | Fraction


def _norm(x: Scalar) -> Scalar:
    # an exact type test: isinstance goes through the numbers ABC registry
    if type(x) is Fraction and x.denominator == 1:
        return int(x)
    return x


class Mat:
    """Immutable matrix with exact entries (int or Fraction)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        # _norm returns every entry of a row without Fractions as it is
        self.rows = tuple(tuple(map(_norm, r)) if Fraction in map(type, r) else r
                          for r in map(tuple, rows))
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise DimensionMismatch("ragged rows")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r: int, c: int) -> "Mat":
        return cls([[0] * c for _ in range(r)])

    @classmethod
    def diagonal(cls, entries) -> "Mat":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_blocks(cls, blocks) -> "Mat":
        """Assemble from a 2d grid of Mat blocks with compatible shapes."""
        rows = []
        for brow in blocks:
            h = brow[0].nrows
            for i in range(h):
                row = []
                for b in brow:
                    row.extend(b.rows[i])
                rows.append(row)
        return cls(rows)

    # -- basic properties ---------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Mat({[list(r) for r in self.rows]})"

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_integral(self) -> bool:
        return all(isinstance(x, int) for row in self.rows for x in row)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def to_numpy(self) -> np.ndarray:
        """The entries as an int64 array; NotSupported if one does not fit."""
        if not self.is_integral():
            raise IntegralityViolation("only integral matrices convert to int64")
        try:
            return np.array(self.rows, dtype=np.int64).reshape(self.nrows, self.ncols)
        except OverflowError:
            raise NotSupported("matrix entry outside the int64 range") from None

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        return Mat(matmul_int(self.rows, other.rows))

    def __add__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch in +")
        return Mat([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scale(-1)

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c: Scalar) -> "Mat":
        return Mat([[c * x for x in row] for row in self.rows])

    def transpose(self) -> "Mat":
        return Mat(list(zip(*self.rows))) if self.rows else Mat([])

    def det(self) -> Scalar:
        if not self.is_square():
            raise DimensionMismatch("determinant of non-square matrix")
        # det(cA) = c^n det(A) for the least c making cA integral
        m, c = ([list(r) for r in self.rows], 1) if self.is_integral() else \
            clear_denominators(self.rows)
        cols, minors, swaps = _eliminate(m, self.nrows, jordan=False)
        d = (-1) ** swaps * minors[-1] if len(cols) == self.nrows else 0
        return d if c == 1 else Fraction(d, c ** self.nrows)

    def inverse(self) -> "Mat":
        return rational_inverse(self)

    # -- JSON codec -----------------------------------------------------
    # ints encode as decimal strings, rationals as "a/b".

    def to_json(self):
        def enc(x):
            if isinstance(x, int):
                return str(x)
            return f"{x.numerator}/{x.denominator}"

        return [[enc(x) for x in row] for row in self.rows]

    @classmethod
    def from_json(cls, data) -> "Mat":
        def dec(s):
            if isinstance(s, int):
                return s
            if "/" in s:
                a, b = s.split("/")
                return Fraction(int(a), int(b))
            return int(s)

        return cls([[dec(x) for x in row] for row in data])


def clear_denominators(rows) -> tuple[list[list[int]], int]:
    """The least c > 0 such that c * rows is integral, and the rows of c * rows."""
    rows = [list(r) for r in rows]
    c = lcm(*(x.denominator for r in rows for x in r if type(x) is Fraction))
    return [[x.numerator * (c // x.denominator) if type(x) is Fraction else x * c
             for x in r] for r in rows], c


def matmul_int(A, B) -> list[list[int]]:
    """The product of two plain row lists (Fraction entries work as well)."""
    Bt = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in Bt] for row in A]


def pairing_int(rows, gram) -> list[list[int]]:
    """rows @ gram @ t(rows), the pairings of the rows under gram."""
    return matmul_int(matmul_int(rows, gram), list(zip(*rows)))


# ---------------------------------------------------------------------------
# Smith normal form with transforms.
# ---------------------------------------------------------------------------


def smith_normal_form(A: Mat) -> tuple[Mat, Mat, Mat]:
    """Return (U, D, V) with U A V = D in Smith normal form.

    Diagonal entries are nonnegative and satisfy d_i | d_{i+1}.
    """
    if not A.is_integral():
        raise DimensionMismatch("Smith normal form requires integer entries")
    a = [list(r) for r in A.rows]
    nr, nc = A.nrows, A.ncols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    _snf_inplace(a, u, v)
    return Mat(u), Mat(a), Mat(v)


def smith_divisors(rows: list[list[int]]) -> list[int]:
    """The nonzero elementary divisors, without transforms.  Destroys its argument."""
    return _snf_inplace(rows)


def _snf_inplace(a, u=None, v=None) -> list[int]:
    """Bring a to Smith form in place, applying the row operations to u and
    the column operations to v when given; returns the nonzero diagonal.

    Rows t.. of a are zero in the columns before t, so row operations on a
    start at column t; a finished pivot is never touched again.
    """
    nr = len(a)
    nc = len(a[0]) if a else 0
    rank_bound = min(nr, nc)
    divs = []
    t = 0
    while t < rank_bound:
        # locate a nonzero pivot of minimal absolute value in the trailing block
        piv = None
        best = None
        for i in range(t, nr):
            ai = a[i]
            for j in range(t, nc):
                x = ai[j]
                if x:
                    if best is None or abs(x) < best:
                        best = abs(x)
                        piv = (i, j)
                        if best == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        i, j = piv
        if i != t:
            a[t], a[i] = a[i], a[t]
            if u is not None:
                u[t], u[i] = u[i], u[t]
        if j != t:
            _swap_cols(a, v, t, j)
        # clear row and column t, restarting when a remainder shrinks the pivot
        while True:
            p = a[t][t]
            done = True
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // p
                    ai, at = a[i], a[t]
                    if q:
                        for k in range(t, nc):
                            ai[k] -= q * at[k]
                        if u is not None:
                            ui, ut = u[i], u[t]
                            for k in range(nr):
                                ui[k] -= q * ut[k]
                    if ai[t]:
                        a[t], a[i] = a[i], a[t]
                        if u is not None:
                            u[t], u[i] = u[i], u[t]
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // p
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                        if v is not None:
                            for row in v:
                                row[j] -= q * row[t]
                    if a[t][j]:
                        _swap_cols(a, v, t, j)
                        done = False
                        break
            if done:
                break
        # pivot must divide the whole trailing block (a unit always does)
        p = a[t][t]
        bad = None
        for i in range(t + 1, nr) if p not in (1, -1) else ():
            ai = a[i]
            for j in range(t + 1, nc):
                if ai[j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            at, ab = a[t], a[bad]
            for k in range(t, nc):
                at[k] += ab[k]
            if u is not None:
                ub, ut = u[bad], u[t]
                for k in range(nr):
                    ut[k] += ub[k]
            continue
        if p < 0:
            a[t][t] = p = -p
            if v is not None:
                for row in v:
                    row[t] = -row[t]
        divs.append(p)
        t += 1
    return divs


def _swap_cols(a, v, t, j):
    for row in a:
        row[t], row[j] = row[j], row[t]
    if v is not None:
        for row in v:
            row[t], row[j] = row[j], row[t]


# ---------------------------------------------------------------------------
# Hermite normal form (row style).
# ---------------------------------------------------------------------------


def hermite_normal_form(A: Mat) -> tuple[Mat, Mat]:
    """Return (H, U) with U A = H, U unimodular, H the row-style HNF."""
    if not A.is_integral():
        raise DimensionMismatch("Hermite normal form requires integer entries")
    a = [list(r) for r in A.rows]
    u = [[1 if i == j else 0 for j in range(A.nrows)] for i in range(A.nrows)]
    _hnf_inplace(a, u)
    return Mat(a), Mat(u)


def _hnf_inplace(a, u=None):
    nr = len(a)
    nc = len(a[0]) if a else 0
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = None
        for i in range(r, nr):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        # gcd out the column below the pivot row
        for i in range(piv + 1, nr):
            if not a[i][c]:
                continue
            x, y = a[piv][c], a[i][c]
            g, s, t = xgcd(x, y)
            xg, yg = x // g, y // g
            rp, ri = a[piv], a[i]
            for k in range(nc):
                rp[k], ri[k] = s * rp[k] + t * ri[k], -yg * rp[k] + xg * ri[k]
            if u is not None:
                up, ui = u[piv], u[i]
                for k in range(nr):
                    up[k], ui[k] = s * up[k] + t * ui[k], -yg * up[k] + xg * ui[k]
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            if u is not None:
                u[r], u[piv] = u[piv], u[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            if u is not None:
                u[r] = [-x for x in u[r]]
        p = a[r][c]
        for i in range(r):
            q = a[i][c] // p
            if q:
                ai, ar = a[i], a[r]
                for k in range(nc):
                    ai[k] -= q * ar[k]
                if u is not None:
                    ui, ur = u[i], u[r]
                    for k in range(nr):
                        ui[k] -= q * ur[k]
        r += 1
    return r


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style HNF of a plain list matrix, zero rows dropped."""
    a = [list(r) for r in rows]
    _hnf_inplace(a)
    return [r for r in a if any(r)]


# ---------------------------------------------------------------------------
# Fraction-free elimination: determinants, inverses and solving.
# ---------------------------------------------------------------------------


def _eliminate(m, nc: int, jordan: bool = True) -> tuple[list[int], list[int], int]:
    """Fraction-free elimination of the integer rows m in place over their
    first nc columns (Bareiss, Math. Comp. 22, 1968; Cohen 2.2).  The pivot
    of a column c is its first nonzero entry at or below the current row;
    with p that pivot and prev the one before, the columns after c of every
    later row (every other row if jordan) become (p * row - f * pivot row) /
    prev, f the row's entry at c, an exact division, as each entry is a minor
    of the input.  Columns at or before c are not read again and are left as
    they are.  After a Gauss-Jordan pass, the columns from nc on are d times
    those of the reduced echelon form, d the last pivot.  Returns the pivot
    columns, [1] followed by the pivots, and the number of row swaps; with no
    swap and every column a pivot column, the pivots are the leading
    principal minors."""
    nr, width = len(m), len(m[0]) if m else 0
    cols, pivots, swaps = [], [1], 0
    for c in range(nc):
        r = len(cols)
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        pr, p, prev = m[r], m[r][c], pivots[-1]
        for i in range(0 if jordan else r + 1, nr):
            if i != r:
                row, f = m[i], m[i][c]
                for j in range(c + 1, width):
                    row[j] = (p * row[j] - f * pr[j]) // prev
        cols.append(c)
        pivots.append(p)
    return cols, pivots, swaps


def leading_minors(A: Mat) -> list[int] | None:
    """[1, P_1, ..., P_n], the leading principal minors of the square
    integral A from one fraction-free pass; None if one of them is 0."""
    cols, minors, swaps = _eliminate([list(r) for r in A.rows], A.nrows, jordan=False)
    return minors if not swaps and len(cols) == A.nrows else None


def lll_gram(rows) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """(U, H, d) for the integral positive definite Gram rows G: U
    unimodular, H = U G U^T the Gram of an LLL-reduced basis, delta = 3/4
    (Lenstra, Lenstra and Lovasz, Math. Ann. 261, 1982), and d = [1, d_1,
    ..., d_n] its leading principal minors, by the integral algorithm on the
    Gram (Cohen, Alg. 2.6.7).  d[i] is the leading principal minor of order
    i of the Gram so far and lam[k][j] = d[j + 1] mu_kj, so every step is an
    exact division of Python ints; the Gram is updated with the basis."""
    n = len(rows)
    G = [list(r) for r in rows]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] + [r[i] for i, r in enumerate(G[:1])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def red(k, l):
        # b_k <- b_k - q b_l with q the integer nearest to mu_kl
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        U[k] = [a - q * b for a, b in zip(U[k], U[l])]
        gk, gl = G[k], G[l]
        kk = gk[k] - 2 * q * gk[l] + q * q * gl[l]
        for t in range(n):
            gk[t] -= q * gl[t]
        gk[k] = kk
        for t in range(n):
            G[t][k] = gk[t]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        # exchange b_k and b_{k-1}: only d[k] and the lam of columns k-1, k change
        U[k], U[k - 1] = U[k - 1], U[k]
        G[k], G[k - 1] = G[k - 1], G[k]
        for r in G:
            r[k], r[k - 1] = r[k - 1], r[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (B * t + lk * lam[i][k]) // d[k + 1]
        d[k] = B

    if n and d[1] <= 0:
        raise NotPositiveDefinite("Gram is not positive definite")
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            # the Gram-Schmidt data of the new vector b_k
            kmax = k
            for j in range(k + 1):
                u = G[k][j]
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    raise NotPositiveDefinite("Gram is not positive definite")
                else:
                    d[k + 1] = u
        red(k, k - 1)
        # Lovasz condition with delta = 3/4, times 4 d[k]^2
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return U, G, d


def rational_inverse(A: Mat) -> Mat:
    if not A.is_square():
        raise DimensionMismatch("inverse of non-square matrix")
    n = A.nrows
    m = clear_denominators([list(row) + [1 if i == j else 0 for j in range(n)]
                            for i, row in enumerate(A.rows)])[0]
    cols, pivots, _ = _eliminate(m, n)
    if len(cols) < n:
        raise SingularMatrix("matrix is singular")
    return Mat([[Fraction(x, pivots[-1]) for x in row[n:]] for row in m])


def solve_right(A: Mat, b) -> tuple | None:
    """Exact solution x of A x = b with the free variables 0, or None."""
    nc = A.ncols
    m = clear_denominators([list(row) + [b[i]] for i, row in enumerate(A.rows)])[0]
    cols, pivots, _ = _eliminate(m, nc)
    if any(row[nc] for row in m[len(cols):]):
        return None
    x = [0] * nc
    for row, c in zip(m, cols):
        x[c] = _norm(Fraction(row[nc], pivots[-1]))
    return tuple(x)


def is_symplectic(g: Mat, J: Mat) -> bool:
    """Exact check of  t(g) J g = J  for an alternating nonsingular J."""
    if not g.is_square() or not J.is_square():
        raise DimensionMismatch("is_symplectic expects square matrices")
    if g.nrows != J.nrows:
        raise DimensionMismatch("size mismatch between g and J")
    if g.nrows % 2:
        raise DimensionMismatch("symplectic matrices have even size")
    return g.transpose() @ J @ g == J


# ---------------------------------------------------------------------------
# Integer lattice helpers (row lattices).
# ---------------------------------------------------------------------------


def left_kernel(A: Mat) -> Mat:
    """Saturated basis of { v integral : v A = 0 }, as rows."""
    H, U = hermite_normal_form(A)
    ker = [U.rows[i] for i in range(A.nrows) if not any(H.rows[i])]
    return Mat(hnf_rows([list(r) for r in ker])) if ker else Mat.zeros(0, A.nrows)


def lattice_intersection(A: Mat, B: Mat) -> Mat:
    """Intersection of the two integer row lattices, as HNF rows."""
    if A.nrows == 0 or B.nrows == 0:
        return Mat.zeros(0, A.ncols)
    # v = (y | z) with y A - z B = 0 gives y A in both lattices
    M = Mat([list(ra) for ra in A.rows] + [[-x for x in rb] for rb in B.rows])
    K = left_kernel(M)
    if K.nrows == 0:
        return Mat.zeros(0, A.ncols)
    ys = Mat([list(row[: A.nrows]) for row in K.rows])
    inter = ys @ A
    return Mat(hnf_rows([list(r) for r in inter.rows]))


# ---------------------------------------------------------------------------
# Integer arithmetic: factoring, gcds, residues, echelon forms mod p.
# ---------------------------------------------------------------------------


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] of n >= 1, ascending p: trial
    division by the divisors up to 2^10, which is all of it below 2^20, and
    then a cofactor that is not prime is split by Pollard's rho.  Raises
    PrimalityUnproven where is_prime does, on a factor from 3.3 * 10^24 on,
    and ScaleLimit where rho does, past _RHO_STEPS steps, which two prime
    factors from about 10^14 on may take."""
    if n < 1:
        raise ValueError(f"factor expects n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n and d <= 1 << 10:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if d * d > n:
        return out + ([(n, 1)] if n > 1 else [])
    primes, parts = [], [n]
    while parts:
        m = parts.pop()
        if is_prime(m):
            primes.append(m)
        else:
            f = _rho(m)
            parts += [f, m // f]
    return out + sorted((p, primes.count(p)) for p in set(primes))


# the steps of Pollard's rho, summed over its walks, before it gives up.  It
# takes about sqrt(p) steps to split off a prime p: a product of two primes
# near 10^12 about 2^20, one of two primes near 2^48 about 2^24
_RHO_STEPS = 1 << 24


def _rho(n: int) -> int:
    """A proper divisor of a composite n with no prime factor up to 2^10:
    Pollard's rho in Brent's form (BIT 20, 1980), with one gcd per 128
    steps, and the next constant c of x^2 + c after a walk that fails.
    Raises ScaleLimit before any run of steps that would take the walks,
    summed, past _RHO_STEPS steps, so it never takes more."""
    c = steps = 0

    def charge(more):
        if steps + more > _RHO_STEPS:
            raise ScaleLimit(f"Pollard's rho reached {steps} steps on {n}, over the budget "
                             f"of {_RHO_STEPS} with the next {more}")

    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            charge(r)
            for _ in range(r):
                y = (y * y + c) % n
            steps += r
            k = 0
            while k < r and g == 1:
                charge(min(128, r - k))
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                steps += min(128, r - k)
                k += 128
            r *= 2
        if g == n:      # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


# no composite below this passes the strong probable-prime test to the first
# 13 prime bases (Sorenson and Webster, Math. Comp. 86, 2017)
_SPRP_PROVEN = 3317044064679887385961981


def is_prime(n) -> bool:
    """Whether n is an int and a prime: trial division below 43^2, and from
    there a strong probable-prime test to the first 13 prime bases.  A base
    that n fails proves it composite.  Below 3.3 * 10^24, passing every base
    proves n prime; from there on it proves nothing, and n raises
    PrimalityUnproven rather than be answered without a proof."""
    if not isinstance(n, int) or n < 2:
        return False
    if n < 43 * 43:
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1        # 2^s exactly divides n - 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        xs = [pow(a, (n - 1) >> s, n)]              # a^(d 2^i), n - 1 = d 2^s
        for _ in range(s - 1):
            xs.append(xs[-1] ** 2 % n)
        if xs[0] != 1 and n - 1 not in xs:
            return False
    if n >= _SPRP_PROVEN:
        raise PrimalityUnproven(f"{n} passes the strong probable-prime test to the "
                                f"first 13 prime bases, which proves no number from "
                                f"{_SPRP_PROVEN} on prime")
    return True


def valuation(n: int, p: int) -> int:
    """The exponent of the prime p in the nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def crt(residues: list[int], moduli: list[int]) -> int:
    """Solution mod prod(moduli) for pairwise coprime moduli."""
    x, m = 0, 1
    for r, n in zip(residues, moduli):
        g, s, _ = xgcd(m, n)
        if g != 1:
            raise ValueError("moduli not coprime")
        x = (x + (r - x) * s * m) % (m * n)
        m *= n
    return x % m


def echelon_mod(A, p: int) -> np.ndarray:
    """The reduced echelon forms mod the prime p of a stack (N, r, n) of
    integer matrices, entries in [0, p), the first nonzero entry of each row
    1 and the zero rows last: one elimination step per column for the whole
    stack, with the pivots inverted as x^(p - 2), so no table of size p is
    built.  Entries are int64 while (p - 1)^2 fits, Python ints otherwise."""
    A = np.asarray(A)
    A = (A % p).astype(np.int64) if (p - 1) ** 2 < 1 << 63 else A.astype(object) % p
    N, r, n = A.shape
    rank = np.zeros(N, dtype=np.int64)
    for c in range(n):
        free = (A[:, :, c] != 0) & (np.arange(r) >= rank[:, None])
        b = np.flatnonzero(free.any(axis=1))
        if not len(b):
            continue
        piv, rk = free[b].argmax(axis=1), rank[b]
        prow = A[b, piv]
        A[b, piv] = A[b, rk]
        inv, x, e = np.ones_like(prow[:, c]), prow[:, c], p - 2
        while e:                    # inv = x^(p - 2) = 1/x mod p, by squaring
            inv, x, e = (inv * x % p if e & 1 else inv), x * x % p, e >> 1
        prow = prow * inv[:, None] % p
        A[b, rk] = prow
        f = A[b, :, c]
        f[np.arange(len(b)), rk] = 0
        A[b] = (A[b] - f[:, :, None] * prow[:, None, :]) % p
        rank[b] += 1
    return A


def _projective_vectors(dim, p):
    """One representative per line of F_p^dim, first nonzero entry 1, after
    the index of that entry."""
    for lead in range(dim):
        for tail in iproduct(range(p), repeat=dim - lead - 1):
            yield lead, (0,) * lead + (1,) + tail
