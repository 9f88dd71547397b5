"""Slow reference classification: the cofactor-expansion path that
`heckelocal` used before its base frames.

It recomputes the base's pairing, determinant and adjugates for every moving
lattice, with a cofactor expansion that is factorial in the dimension, so it
serves only as a differential oracle on small shapes.  It shares the
elementary-divisor exponents and the slot recovery with the package.

`monomial_block_by_slot` and `representative_lattice_by_slot` are the
representatives as `heckelocal` wrote them before its one slot helper, each
restating the four slots of the invariant tuple itself.
"""

from paramodular.errors import NotElementary, NotIsometric
from paramodular.exactmat import Mat, valuation
from paramodular.heckelocal import (LocalDoubleCoset, LocalShape, _exponents, _normalize,
                                    _recover)


def _matmul_int(A, B):
    Bt = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) for col in Bt] for row in A]


def _det_int(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    tot = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            tot += (-1) ** j * rows[0][j] * _det_int(minor)
    return tot


def _adjugate(rows):
    n = len(rows)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            adj[j][i] = (-1) ** (i + j) * _det_int(minor)
    return adj


def classify_internal_cofactor(p, gram_base_amb, base_rows, base_k, mov_rows, mov_k,
                               shape_ab=None, strict=True):
    """Class of p**-mov_k rowspan(mov_rows) against p**-base_k rowspan(base_rows)."""
    n = len(base_rows) // 2
    H = _matmul_int(_matmul_int(base_rows, gram_base_amb), list(map(list, zip(*base_rows))))
    sc = p ** (2 * base_k)
    if any(x % sc for row in H for x in row):
        raise NotElementary("base lattice is not integral")
    H = [[x // sc for x in row] for row in H]
    detH = _det_int(H)
    e2b = valuation(abs(detH), p)
    if (strict and abs(detH) != p**e2b) or e2b % 2:
        raise NotElementary("base lattice determinant is not an even p-power")
    b = e2b // 2
    a = n - b
    if shape_ab is not None and (a, b) != shape_ab:
        raise NotIsometric("base lattice does not match the shape")

    adjR = _adjugate(base_rows)
    detR = _det_int(base_rows)
    vdet = valuation(abs(detR), p)
    if strict and abs(detR) != p**vdet:
        raise NotElementary("base lattice is not p-commensurable")
    X = _matmul_int(mov_rows, adjR)
    if detR < 0:
        X = [[-x for x in row] for row in X]
    expA = _exponents(X, base_k - mov_k - vdet, p, strict)
    # dual of the base: p^{-(base_k + 2b)} * rowspan(adj(H) @ base_rows)
    dual_rows = _matmul_int(_adjugate(H), base_rows)
    adjD = _adjugate(dual_rows)
    detD = _det_int(dual_rows)
    vdetD = valuation(abs(detD), p)
    if strict and abs(detD) != p**vdetD:
        raise NotElementary("dual coordinates are not p-powers")
    Xd = _matmul_int(mov_rows, adjD)
    if detD < 0:
        Xd = [[-x for x in row] for row in Xd]
    expB = _exponents(Xd, (base_k + 2 * b) - mov_k - vdetD, p, strict)
    rm, rp, mu = _recover(a, b, expA, expB)
    return LocalDoubleCoset(LocalShape(p, a, b), rm, rp, mu)


def monomial_block_by_slot(dc: LocalDoubleCoset) -> Mat:
    a, n, p = dc.shape.a, dc.shape.n, dc.shape.p
    rm, rp, mu = dc.r_minus, dc.r_plus, dc.mu
    at = dc.a_target
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        if i < rm:
            j = at + i
        elif i < a:
            j = rp + (i - rm)
        elif i < a + rp:
            j = i - a
        else:
            j = i
        rows[i][j] = p ** mu[i]
    return Mat(rows)


def representative_lattice_by_slot(dc: LocalDoubleCoset):
    a, n, p = dc.shape.a, dc.shape.n, dc.shape.p
    rm, rp, mu = dc.r_minus, dc.r_plus, dc.mu
    k = max([mu[i] for i in range(rm, a)] + [mu[i] - 1 for i in range(rm)]
            + [mu[i] + 1 for i in range(a, a + rp)] + [mu[i] for i in range(a + rp, n)]
            + [0])
    rows = []
    for i in range(n):
        e = [0] * (2 * n)
        f = [0] * (2 * n)
        if i < rm:
            ee, ff = mu[i], -mu[i] + 1
        elif i < a:
            ee, ff = mu[i], -mu[i]
        elif i < a + rp:
            ee, ff = mu[i], -mu[i] - 1
        else:
            ee, ff = mu[i], -mu[i]
        e[i] = p ** (ee + k)
        f[n + i] = p ** (ff + k)
        rows.append(e)
        rows.append(f)
    return _normalize(rows, k, p)
