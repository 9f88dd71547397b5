"""Congruence lifting into SL_n(Z).

Given residue targets U_m in SL_n(Z/m) at pairwise coprime moduli, produce an
integer matrix of determinant 1 congruent to each target.  The combined
target is factored into elementary transvections over Z/M and the factors are
lifted to Z with centered representatives.
"""

from __future__ import annotations

from .errors import IncompatibleLocals
from .exactmat import Mat, crt, factor


def _centered(x: int, M: int) -> int:
    x %= M
    if 2 * x > M:
        x -= M
    return x


def _reduce_to_identity(a: list[list[int]], M: int) -> list[tuple[int, int, int]]:
    """Row-reduce ``a`` (mod M, det 1) to the identity with transvections.

    Returns the applied operations in time order; op (i, j, c) means
    row_i += c * row_j, i.e. left multiplication by E_ij(c).
    """
    n = len(a)
    primes = [p for p, _ in factor(M)]
    ops: list[tuple[int, int, int]] = []

    def rowop(i, j, c):
        c %= M
        if c == 0:
            return
        a[i] = [(x + c * y) % M for x, y in zip(a[i], a[j])]
        ops.append((i, j, c))

    def make_unit(col):
        # adjust a[col][col] to be a unit mod M, prime by prime
        while True:
            bad = [q for q in primes if a[col][col] % q == 0]
            if not bad:
                return
            q = bad[0]
            wit = None
            for i in range(col + 1, n):
                if a[i][col] % q:
                    wit = i
                    break
            if wit is None:
                raise IncompatibleLocals(f"target is singular mod {q}")
            lam = (1 - a[col][col]) * pow(a[wit][col], -1, q) % q
            others = [p for p in primes if p != q]
            c = crt([lam] + [0] * len(others), [q] + others)
            rowop(col, wit, c)

    for col in range(n - 1):
        make_unit(col)
        pinv = pow(a[col][col], -1, M)
        for i in range(col + 1, n):
            if a[i][col]:
                rowop(i, col, -a[i][col] * pinv)
    # upper triangle cleanup, bottom-up (diagonal entries are units)
    for col in range(n - 1, 0, -1):
        try:
            pinv = pow(a[col][col], -1, M)
        except ValueError:
            raise IncompatibleLocals("target determinant is not a unit")
        for i in range(col):
            if a[i][col]:
                rowop(i, col, -a[i][col] * pinv)
    # diagonal is now diag(u_0, ..., u_{n-1}) with product 1 mod M;
    # sweep it to the identity with h(v) = diag(v, 1/v) factors, using
    # h(v) = E12(v) E21(-1/v) E12(v) E12(-1) E21(1) E12(-1) applied at (i, i+1)
    for i in range(n - 1):
        u = a[i][i] % M
        if u == 1:
            continue
        v = pow(u, -1, M)
        vinv = u
        for (r, s, c) in ((i, i + 1, -1), (i + 1, i, 1), (i, i + 1, -1),
                          (i, i + 1, v), (i + 1, i, -vinv), (i, i + 1, v)):
            rowop(r, s, c)
    if any(a[i][j] % M != (1 if i == j else 0) % M for i in range(n) for j in range(n)):
        raise IncompatibleLocals("reduction failed; determinant not 1 mod M")
    return ops


def sl_lift(targets: dict[int, Mat], n: int) -> Mat:
    """Integer matrix of determinant 1 congruent to every target.

    ``targets`` maps pairwise coprime moduli m to integer matrices that are
    in SL_n mod m.  Raises IncompatibleLocals when a target is not.
    """
    if not targets:
        return Mat.identity(n)
    mods = [m for m in targets if m > 1]
    if not mods:
        return Mat.identity(n)
    M = 1
    for m in mods:
        M *= m
    combined = [[crt([targets[m][i, j] % m for m in mods], mods) for j in range(n)]
                for i in range(n)]
    for m in mods:
        d = Mat([[combined[i][j] % m for j in range(n)] for i in range(n)]).det() % m
        if d != 1 % m:
            raise IncompatibleLocals(f"target determinant is not 1 mod {m}")

    ops = _reduce_to_identity([row[:] for row in combined], M)
    # ops give E_s ... E_1 U = I, hence U = inv(E_1) inv(E_2) ... inv(E_s),
    # and each right factor inv(E_ij(c)) = E_ij(-c) adds -c col_i to col_j
    lift = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        x = _centered(-c, M)
        for row in lift:
            row[j] += x * row[i]
    result = Mat(lift)
    if result.det() != 1:
        raise IncompatibleLocals("lift does not have determinant 1")
    for m in mods:
        tm = targets[m]
        if any((result[i, j] - tm[i, j]) % m for i in range(n) for j in range(n)):
            raise IncompatibleLocals(f"lift is not congruent to the target mod {m}")
    return result
