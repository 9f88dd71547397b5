"""Slow reference paths for the chain-class and chain-theta code: the
per-subspace, per-vector and per-tuple loops that `quadlat` and `thetaser`
used before their whole-array forms.

* `act_mod` moves one reduced echelon basis by one generator with a Python
  `rref_mod`; the chain-class search now numbers the candidate subspaces and
  moves all of them at once.
* `in_lattice` reduces one vector against HNF rows pivot by pivot; the
  stabilizer search now tests all hits of a depth through a quotient map.
* `pair_coefficients` joins every vector of member 1 with every vector of
  member 2; the package joins one vector of each pair +-x1 and mirrors.
* `tuple_coefficients` is the tuple recursion with its separate Gram function.

They serve only as differential oracles on small inputs.
"""

import numpy as np

from paramodular.errors import ScaleLimit
from paramodular.exactmat import rref_mod
from paramodular.quadlat import shell_vectors


def act_mod(basis, gp, p) -> tuple:
    """Echelon basis of the image of a subspace of F_p^n under v -> v g^T,
    given the rows gp of g^T mod p."""
    out = []
    for r in basis:
        acc = [0] * len(gp)
        for c, grow in zip(r, gp):
            if c:
                acc = [a + c * b for a, b in zip(acc, grow)]
        out.append(acc)
    return tuple(map(tuple, rref_mod(out, p)))


def in_lattice(vec, hnf_rows_list) -> bool:
    v = list(vec)
    for row in hnf_rows_list:
        piv = next((t for t, x in enumerate(row) if x), None)
        if piv is None:
            continue
        if v[piv] % row[piv]:
            return False
        q = v[piv] // row[piv]
        if q:
            for t in range(piv, len(v)):
                v[t] -= q * row[t]
    return not any(v)


def pair_coefficients(grams, G1, mats, bound, budget=200 * 10**6):
    """Counts of the pair Grams, from the member Grams and the member
    coordinates in L1 (numpy) against the Gram G1 of L1."""
    sh1 = shell_vectors(grams[0], bound, budget)
    sh2 = shell_vectors(grams[1], bound, budget)
    W = mats[0] @ G1 @ mats[1].T        # pairing of member coordinates
    off = 2 * bound + 1
    counts: dict[tuple, int] = {}
    for q1, X1 in sh1.items():
        for q2, X2 in sh2.items():
            if q1 + q2 > bound:
                continue
            cross_all = np.zeros(2 * off + 1, dtype=np.int64)
            block = max(1, (1 << 23) // max(1, len(X2)))
            Y2 = (W @ X2.T)
            for t in range(0, len(X1), block):
                piece = X1[t:t + block] @ Y2
                cross_all += np.bincount((piece + off).ravel(),
                                         minlength=2 * off + 1)
            for b12, c in enumerate(cross_all):
                if c:
                    H = ((2 * q1, b12 - off), (b12 - off, 2 * q2))
                    counts[H] = counts.get(H, 0) + int(c)
    return counts


def tuple_coefficients(grams, G1, mats, bound, budget=200 * 10**6):
    n = len(grams)
    shells = [shell_vectors(g, bound, budget) for g in grams]
    pair = [[mats[i] @ G1 @ mats[j].T for j in range(n)] for i in range(n)]
    counts: dict[tuple, int] = {}
    work = [0]

    def rec(j, chosen, used):
        if j == n:
            H = tuple(tuple(row) for row in _gram_of(chosen, pair))
            counts[H] = counts.get(H, 0) + 1
            return
        for q, X in shells[j].items():
            if used + q > bound:
                continue
            for v in X:
                work[0] += 1
                if work[0] > budget:
                    raise ScaleLimit(f"tuple join reached {work[0]} tuples, "
                                     f"over the budget of {budget}")
                rec(j + 1, chosen + [(j, v, q)], used + q)

    rec(0, [], 0)
    return counts


def _gram_of(chosen, pair):
    n = len(chosen)
    H = [[0] * n for _ in range(n)]
    for a in range(n):
        ja, va, qa = chosen[a]
        H[a][a] = 2 * qa
        for b in range(a + 1, n):
            jb, vb, _ = chosen[b]
            val = int(va @ pair[ja][jb] @ vb)
            H[a][b] = H[b][a] = val
    return H
