"""Slow exact helpers that the package no longer needs, kept as references
for the tests: `rref_mod`, the per-matrix reduced echelon form mod a prime
that `exactmat.echelon_mod` replaced, and `saturation`, the saturation of a
row lattice from one Smith form with transforms."""

from paramodular.exactmat import Mat, hnf_rows, rational_inverse, smith_normal_form


def rref_mod(rows, p: int) -> list[list[int]]:
    """Reduced echelon basis mod the prime p of the row space of rows, with
    entries in [0, p); the first nonzero entry of each row is 1."""
    m = [[x % p for x in r] for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return [row for row in m if any(row)]


def saturation(rows: Mat) -> Mat:
    """Saturation of the row lattice: (QQ-span) intersected with ZZ^n."""
    if rows.nrows == 0:
        return rows
    U, D, V = smith_normal_form(rows)
    r = sum(1 for i in range(min(D.nrows, D.ncols)) if D[i, i])
    vinv = rational_inverse(V)
    sat = [vinv.rows[i] for i in range(r)]
    return Mat(hnf_rows([list(x) for x in sat]))
