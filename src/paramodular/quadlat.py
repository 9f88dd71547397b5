"""Positive definite even lattices: short vectors, isometries, automorphism
orders, modular sublattices, and chains of nested modular lattices.

Grams are stored as the even matrix of the doubled form, so Q(x) is half the
matrix value and all entries stay integral.  Short-vector enumeration has an
exact pure-Python reference path and a chunked numpy path for bulk work; both
filter candidates with exact integer arithmetic, the floating point part only
produces a superset.  Enumerations of a lattice run on its enumeration
basis: the given basis when it passes the orthogonality defect test
prod_i G_ii <= 2^(n(n-1)/2) det G and the spread test
max_i G_ii <= 2^(n-1) min_i G_ii, else its exact LLL reduction; isometry
searches run on the LLL reduction as well when it shortens the longest
basis vector.  Vectors, residues and isometries are carried back to the
given basis.  The bases and the float pivots of a Gram are derived once
and kept in bounded caches, read-only, for later calls on an equal Gram.
Shells and shell counts finish Q per prefix, the counts from zero and one
vector of each pair +-x.  The isometry search keeps each depth's live
candidates as a bitset, cut by masks of inner products, and the automorphism
search extends one image per new orbit point of the generators found so far.
The p-modular sublattices between L and pL, for any prime p, come from one
bitset search for the maximal totally singular subspaces of L/pL, and the
classes of chains from an orbit ladder, one rung per prime.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, prod, sqrt
from operator import add, and_

import numpy as np

from .errors import (
    DimensionMismatch,
    IntegralityViolation,
    InvalidInvariant,
    InvalidLevel,
    InvalidRank,
    NonSquareFreeLevel,
    NotEven,
    NotIsometric,
    NotPositiveDefinite,
    NotStabilizing,
    NotSupported,
    ScaleLimit,
)
from .exactmat import (
    Mat,
    _projective_vectors,
    clear_denominators,
    echelon_mod,
    factor,
    hnf_rows,
    is_prime,
    leading_minors,
    lll_gram,
    rational_inverse,
    smith_normal_form,
    solve_right,
)


class QuadLattice:
    """Even positive definite lattice, given by the doubled Gram matrix."""

    def __init__(self, gram: Mat):
        if not gram.is_square() or not gram.is_integral():
            raise NotPositiveDefinite("Gram must be square and integral")
        n = gram.nrows
        if n == 0:
            raise InvalidRank("a lattice needs rank at least 1")
        for i in range(n):
            if gram[i, i] % 2:
                raise NotEven("diagonal of the doubled Gram must be even")
            for j in range(i):
                if gram[i, j] != gram[j, i]:
                    raise NotPositiveDefinite("Gram must be symmetric")
        # positive definite: every leading principal minor is positive; the
        # minors [1, P_1, ..., P_n] are kept, P_n is the discriminant
        self.minors = leading_minors(gram)
        if self.minors is None or min(self.minors) <= 0:
            raise NotPositiveDefinite("form is not positive definite")
        self.gram = gram
        self.rank = n
        self._min = None        # min_positive, once it is asked for
        self._dual = None       # dual_and_level, once it is asked for

    def __repr__(self):
        return f"QuadLattice(rank={self.rank}, disc={self.disc()})"

    def q(self, x) -> int:
        g = self.gram
        n = self.rank
        tot = 0
        for i in range(n):
            if x[i]:
                tot += x[i] * sum(g[i, j] * x[j] for j in range(n))
        if tot % 2:
            raise NotEven("odd value of the doubled form")
        return tot // 2

    def disc(self) -> int:
        return self.minors[-1]

    def dual_and_level(self) -> tuple[Mat, int]:
        """The inverse Gram, whose rows are a basis of the dual lattice in
        the coordinates of this one, and the level: the smallest N with
        N * Q(dual) integral.  One exact inverse gives both, on the first
        call, and the later ones read them."""
        if self._dual is None:
            inv = rational_inverse(self.gram)
            N = clear_denominators(inv.rows)[1]
            self._dual = inv, 2 * N if any(N * inv[i, i] % 2 for i in range(self.rank)) else N
        return self._dual

    def level(self) -> int:
        """Smallest N with N * Q(dual) integral."""
        return self.dual_and_level()[1]

    def min_positive(self) -> int:
        """Minimum of Q on nonzero vectors, found by doubling the bound from 1
        on the first call and kept for the later ones."""
        b = 1
        while self._min is None:
            counts = shell_counts(self, b)
            self._min = min((q for q in counts if q), default=None)
            b *= 2
        return self._min


def invariants(L: QuadLattice):
    dual, level = L.dual_and_level()
    return level, L.disc(), dual


def e8_lattice() -> QuadLattice:
    """Root lattice of rank 8 with doubled Gram the standard Cartan matrix."""
    c = [[0] * 8 for _ in range(8)]
    bonds = [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
    for i in range(8):
        c[i][i] = 2
    for i, j in bonds:
        c[i][j] = c[j][i] = -1
    return QuadLattice(Mat(c))


# ---------------------------------------------------------------------------
# Short vector enumeration.
# ---------------------------------------------------------------------------


def _cholesky_fraction(gram: Mat):
    """Exact decomposition Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2."""
    n = gram.nrows
    A = [[Fraction(gram[i, j], 2) for j in range(n)] for i in range(n)]
    U = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for i in range(n):
        D[i] = A[i][i]
        if D[i] <= 0:
            raise NotPositiveDefinite("Cholesky pivot is not positive")
        for j in range(i + 1, n):
            U[i][j] = A[i][j] / D[i]
        for k in range(i + 1, n):
            for l in range(i + 1, n):
                A[k][l] -= D[i] * U[i][k] * U[i][l]
    return D, U


def short_vectors_exact(L: QuadLattice, bound: int, budget: int = 2 * 10**6):
    """All x with Q(x) <= bound, exact recursion, as {q: [tuples]}.

    Reference enumerator with Fraction arithmetic throughout; the float
    square root only seeds the interval, which is then adjusted exactly.
    """
    n = L.rank
    D, U = _cholesky_fraction(L.gram)
    out: dict[int, list[tuple[int, ...]]] = {}
    x = [0] * n
    seen = [0]

    def rec(i, remaining):
        if i < 0:
            q = L.q(x)
            out.setdefault(q, []).append(tuple(x))
            return
        center = sum(U[i][j] * x[j] for j in range(i + 1, n))
        rad2 = remaining / D[i]
        lo, hi = _int_interval(center, rad2)
        for v in range(lo, hi + 1):
            seen[0] += 1
            if seen[0] > budget:
                raise ScaleLimit(f"exact enumeration reached {seen[0]} candidates, "
                                 f"over the budget of {budget}")
            x[i] = v
            rec(i - 1, remaining - D[i] * (v + center) ** 2)
        x[i] = 0

    rec(n - 1, Fraction(bound))
    return out


def _int_interval(center: Fraction, rad2: Fraction) -> tuple[int, int]:
    """Exact integer solutions v of (v + center)^2 <= rad2, as [lo, hi]."""
    if rad2 < 0:
        return 1, 0
    s = sqrt(float(rad2)) + 1e-9
    c = -float(center)
    lo = floor(c - s) - 1
    hi = ceil(c + s) + 1
    while (lo + center) ** 2 <= rad2:
        lo -= 1
    while lo <= hi and (lo + center) ** 2 > rad2:
        lo += 1
    while (hi + center) ** 2 <= rad2:
        hi += 1
    while hi >= lo and (hi + center) ** 2 > rad2:
        hi -= 1
    return lo, hi


def _join(X, idx, xs):
    """Rows X[idx] with the column xs appended."""
    Xn = np.empty((len(xs), X.shape[1] + 1), dtype=np.int64)
    # idx is in range by construction, so clip mode only drops the bounds
    # check and the buffered copy of the default mode
    np.take(X, idx, axis=0, out=Xn[:, :-1], mode="clip")
    Xn[:, -1] = xs
    return Xn


@lru_cache(maxsize=64)
def _pivots(gram: Mat):
    """(G, D, V) for a Gram: its int64 matrix, the float pivots D_i of the
    form Q(x) = sum_i D_i (x_i + sum_{j>i} U_ij x_j)^2, and per level i the
    reversed row U[i, i+1:], which pairs with prefixes x_{n-1}, ..., x_{i+1}.
    Kept for the 64 Grams used last, keyed by the Mat, so that equal Grams
    share one entry; the arrays are read-only, as every caller and thread
    gets the same ones.  In Python floats, as the matrices are small: each
    entry takes the same IEEE operations, in the same order, as the
    elimination in numpy arrays."""
    G = gram.to_numpy()
    n = gram.nrows
    W = (G.astype(float) / 2.0).tolist()
    D, V = [], []
    for i in range(n):
        d, row = W[i][i], W[i]
        if d <= 0:
            raise NotPositiveDefinite("float Cholesky failed")
        u = [row[j] / d for j in range(i + 1, n)]
        for k, uk in enumerate(u, i + 1):
            Wk = W[k]
            for l, ul in enumerate(u, i + 1):
                Wk[l] -= d * (uk * ul)
        D.append(d)
        V.append(np.array(u[::-1]))
    D, V = np.array(D), tuple(V)
    for a in (G, D, *V):
        a.flags.writeable = False
    return G, D, V


# Gram: [U, R, P, the search basis or None], for the 64 Grams used last
_BASES: OrderedDict = OrderedDict()
_BASES_LOCK = threading.Lock()


def _keep(entries: dict) -> None:
    with _BASES_LOCK:
        for key, entry in entries.items():
            _BASES[key] = entry
            _BASES.move_to_end(key)
        while len(_BASES) > 64:
            _BASES.popitem(last=False)


def _basis_entry(gram: Mat, minors=None) -> list:
    """The cache entry of gram (see enumeration_basis and search_basis),
    filled at the first call on an equal Gram, with the entry of a reduced
    basis beside it."""
    with _BASES_LOCK:
        entry = _BASES.get(gram)
        if entry is not None:
            _BASES.move_to_end(gram)
            return entry
    n = gram.nrows
    diag = [gram[i, i] for i in range(n)]
    spread = max(diag, default=0) <= min(diag, default=0) << n - 1
    # a Gram that fails the spread test needs no minors here, as lll_gram
    # takes its own and raises NotPositiveDefinite as well
    if spread and minors is None:
        minors = leading_minors(gram)
        if minors is None or min(minors) <= 0:
            raise NotPositiveDefinite("form is not positive definite")
    if spread and prod(diag) <= minors[-1] << n * (n - 1) // 2:
        entries = {gram: [None, gram, tuple(minors), None]}
    else:
        U, R, P = lll_gram(gram.rows)
        R, P = Mat(R), tuple(P)
        # lll_gram leaves an LLL-reduced Gram as it is; the LLL reduction is
        # the search basis as well
        entries = {R: [None, R, P, (None, R)]}
        if R != gram:
            entries[gram] = [Mat(U), R, P, (Mat(U), R)]
    _keep(entries)
    return entries[gram]


def enumeration_basis(gram: Mat, minors=None) -> tuple[Mat | None, Mat, tuple[int, ...]]:
    """(U, R, P): the basis R = U gram U^T on which every enumeration of
    gram runs, with U unimodular, and the leading principal minors P of R.
    R is gram itself, and U None, when gram passes two exact tests: the
    orthogonality defect prod_i gram_ii <= 2^(n(n-1)/2) det gram, which
    every LLL-reduced basis passes, and the spread max_i gram_ii <= 2^(n-1)
    min_i gram_ii, which every LLL-reduced basis of a lattice with equal
    successive minima passes.  The second catches one long vector among
    short ones, which the first lets through with a defect as low as 2^23
    at rank 8, and which widens the enumeration's tree.  Otherwise R is the
    exact LLL reduction of gram (exactmat.lll_gram), unless that leaves gram
    as it is.  minors, the leading principal minors of gram, spare an
    elimination when the caller holds them (QuadLattice.minors).  Kept, with
    the search basis, for the 64 Grams used last."""
    return tuple(_basis_entry(gram, minors)[:3])


def search_basis(gram: Mat, minors=None) -> tuple[Mat | None, Mat]:
    """(U, S): the basis S = U gram U^T on which the isometry searches of
    gram run, U None when S is gram.  A search lists the shells up to the
    largest norm of its basis, and a basis that passes both tests of
    enumeration_basis may still hold one vector of norm up to 2^(n-1) times
    the others' (E8 with b_7 = e_7 + 11 e_0 would list 1.5 * 10^10 vectors
    at Q <= 122).  So S is the LLL reduction of gram when gram is its own
    enumeration basis and the reduction shortens its longest vector, and
    the enumeration basis otherwise, which is an LLL reduction already.  The
    enumeration basis does not take the first rule, as it would move the
    enumeration order of nearly every pinned basis (LLL shortens the longest
    vector of the (1, 2) member K and of every pmodular_coords member).
    Filled at the first search, in the entry of enumeration_basis."""
    entry = _basis_entry(gram, minors)
    if entry[3] is None:
        V, S, P = lll_gram(gram.rows)
        S, P = Mat(S), tuple(P)
        if max(S[i, i] for i in range(S.nrows)) < max(gram[i, i] for i in range(gram.nrows)):
            _keep({S: [None, S, P, (None, S)]})
            entry[3] = Mat(V), S
        else:
            entry[3] = None, gram
    return entry[3]


def fincke_pohst_leaves(gram: Mat, bound, chunk: int = 1 << 19,
                        budget: int = 500 * 10**6, half: bool = False):
    """Candidates covering all Q(x) <= bound, a chunk of prefixes at a
    time, before the last coordinate is joined to its prefix: yields
    (X, idx, x0), where the rows of X hold x_{n-1}, ..., x_1 and candidate k
    is the prefix X[idx[k]] with x_0 = x0[k].  Callers that only need
    functions of the candidates can compute the prefix part once per row of
    X.  Floating point bounds include a slack margin, so the candidates are
    a superset: callers filter them with exact arithmetic.  The budget caps
    the candidates examined, summed over every level of the search.  The
    float pivots come from _pivots, once per Gram while it stays in that
    bounded cache, not once per call.  This enumerator runs in the basis it
    is given, whatever its skew; the package's enumerations give it their
    enumeration basis (enumeration_basis).

    With half=True the candidates are zero and exactly one vector of each
    pair +-x: on the one row whose coordinates above level i are all zero,
    x_i starts at 0, so the last nonzero coordinate is positive.  The
    candidate set is symmetric under x -> -x, so the negatives of the
    nonzero rows complete it to the full enumeration.  The full enumeration
    keeps its order, on which the isometry search's node counts depend.
    """
    n = gram.nrows
    _, D, V = _pivots(gram)
    eps = 1e-6 + 1e-9 * float(bound)
    B = float(bound) + eps
    total_seen = 0

    # states hold coordinates x_{n-1},...,x_{i+1} column-wise, and the index
    # of their all-zero row when half is set and the state holds it, else -1
    stack = [(np.zeros((1, 0), dtype=np.int64), np.zeros(1), n - 1, 0 if half else -1)]
    while stack:
        X, partial, i, z = stack.pop()
        c = X @ V[i]
        s = np.sqrt(np.maximum(B - partial, 0.0) / D[i])
        lo = np.ceil(-c - s - 1e-9).astype(np.int64)
        hi = np.floor(-c + s + 1e-9).astype(np.int64)
        if z >= 0:
            lo[z] = 0
        counts = np.maximum(hi - lo + 1, 0)
        ends = np.cumsum(counts)
        total = int(ends[-1])
        if total == 0:
            continue
        total_seen += total
        if total_seen > budget:
            raise ScaleLimit(f"enumeration reached {total_seen} candidates, "
                             f"over the budget of {budget}")
        offs = ends - counts
        idx = np.repeat(np.arange(len(X)), counts)
        xs = np.arange(total) + np.repeat(lo - offs, counts)
        if i == 0:
            yield X, idx, xs
            continue
        Xn = _join(X, idx, xs)
        pn = partial[idx] + D[i] * (xs + c[idx]) ** 2
        # the all-zero row's first child, x_i = 0, is the next all-zero row
        zn = int(offs[z]) if z >= 0 else -1
        if len(Xn) > chunk:
            pieces = int(np.ceil(len(Xn) / chunk))
            for t in range(pieces):
                sl = slice(t * chunk, (t + 1) * chunk)
                zt = zn - t * chunk if t * chunk <= zn < (t + 1) * chunk else -1
                stack.append((Xn[sl], pn[sl], i - 1, zt))
        else:
            stack.append((Xn, pn, i - 1, zn))


def leaf_norms(G: np.ndarray, X, idx, x0):
    """(P, q) for a leaf (X, idx, x0) of fincke_pohst_leaves and the int64
    Gram G: the rows of P hold the prefixes (x_1, ..., x_{n-1}), and q[k] is
    the exact Q of candidate k, computed once per prefix and finished on the
    x_0 column.  The candidates are a superset: callers keep q <= bound."""
    P = X[:, ::-1]
    qp = np.einsum("ij,ij->i", P @ G[1:, 1:], P) // 2
    bp = P @ G[1:, 0]
    return P, qp[idx] + x0 * (bp[idx] + G[0, 0] // 2 * x0)


def shell_counts(L: QuadLattice, bound: int, budget: int = 500 * 10**6) -> dict[int, int]:
    """Exact counts {q: #vectors with Q = q} for q <= bound, from zero and
    one vector of each pair +-x of the enumeration basis; the budget caps
    those candidates."""
    if bound < 0:
        return {}
    R = enumeration_basis(L.gram, L.minors)[1]
    G = _pivots(R)[0]
    counts = np.zeros(bound + 1, dtype=np.int64)
    # small chunks keep the arrays of one step in cache and the peak low
    for leaf in fincke_pohst_leaves(R, bound, 1 << 16, budget, half=True):
        q = leaf_norms(G, *leaf)[1]
        counts += np.bincount(q[q <= bound], minlength=bound + 1)
    counts[1:] *= 2
    return {q: int(counts[q]) for q in range(bound + 1) if counts[q]}


def short_vectors(L: QuadLattice, bound: int, budget: int = 500 * 10**6):
    """All x with Q(x) <= bound via the chunked enumerator, as {q: [tuples]}."""
    return {q: list(map(tuple, X.tolist()))
            for q, X in shell_vectors(L.gram, bound, budget, minors=L.minors).items()}


def shell_vectors(gram: Mat, bound: int, budget: int = 500 * 10**6,
                  half: bool = False, minors=None) -> dict[int, np.ndarray]:
    """Coordinates with Q(x) <= bound as {q: int64 rows}, each shell in
    enumeration order; with half=True, zero and one vector of each pair +-x,
    as fincke_pohst_leaves gives them.  Q is computed once per prefix, and
    only the rows kept are joined.  The rows y found in the enumeration
    basis R = U gram U^T are mapped back as y U, one int64 product per
    shell, and NotSupported is raised if that product could overflow.
    minors, gram's leading principal minors, go to enumeration_basis."""
    U, R, _ = enumeration_basis(gram, minors)
    G = _pivots(R)[0]
    groups: dict[int, list] = {}
    for X, idx, x0 in fincke_pohst_leaves(R, bound, budget=budget, half=half):
        qv = leaf_norms(G, X, idx, x0)[1]
        keep = qv <= bound
        X, qv = _join(X, idx[keep], x0[keep])[:, ::-1], qv[keep]
        for q in np.unique(qv):
            groups.setdefault(int(q), []).append(X[qv == q])
    shells = {q: np.concatenate(parts) for q, parts in groups.items()}
    if U is None:
        return shells
    ymax = max((int(np.abs(Y).max()) for Y in shells.values()), default=0)
    if max(ymax, 1) * max(sum(abs(u) for u in col) for col in zip(*U.rows)) >= 1 << 63:
        raise NotSupported("the shell vectors mapped back to the given basis may overflow int64")
    Un = U.to_numpy()
    return {q: Y @ Un for q, Y in shells.items()}


# ---------------------------------------------------------------------------
# Isometries and automorphisms (backtracking over short vectors).
# ---------------------------------------------------------------------------


class _Backtracker:
    """Search for linear maps carrying one Gram to another over shells.

    The image of source basis vector d is chosen among the target vectors of
    norm Q(e_d), the candidates of depth d, numbered in shell order.  Each
    depth keeps its live candidates as a Python-int bitset.  Choosing
    candidate k at depth d ANDs every later depth e with the mask of the
    candidates c with b(k, c) = gram_source[d, e].  The masks come from
    int64 products of Gram rows with the candidates, are built for a block
    of candidates when one of them is first chosen, and are kept by the
    search object only.  The live bits are walked low first, in shell order,
    which is the order in which a candidate-by-candidate test visits them,
    so the search tree, and with it the node count that the budget caps, is
    the same.  The products are exact: the constructor raises NotSupported
    unless n^2 * max|Gram| * max|candidate|^2 < 2^63.

    Each of the sublattices (coordinate rows) must map into itself.  Its
    rows echelonized against the reversed coordinates are supported on
    prefixes, so each row's image is tested at the depth d of its last one:
    the candidates of depth d pass when their residue class in the quotient
    by the sublattice cancels that of the earlier images, one bitset per
    class.
    """

    def __init__(self, gram_target: Mat, gram_source: Mat, budget: int = 10**7,
                 sublattices=()):
        # columns of a solution g are target-coordinates of the images of
        # the source basis:  t(g) . gram_target . g = gram_source
        self.n = n = gram_source.nrows
        self.budget = budget
        self.norms = [gram_source[d, d] // 2 for d in range(n)]
        shells = shell_vectors(gram_target, max(self.norms))
        self.cands = {q: shells.get(q, np.zeros((0, n), dtype=np.int64))
                      for q in self.norms}
        self.nodes = 0
        self._gs = gram_source.to_numpy()
        cmax = max((int(np.abs(C).max()) for C in self.cands.values() if len(C)), default=0)
        gmax = max(abs(x) for row in gram_target.rows for x in row)
        if n * n * gmax * cmax ** 2 >= 1 << 63:
            raise NotSupported("candidate inner products may overflow int64")
        # Gram rows of the candidates: the inner products of candidate k
        # with the candidates C are C @ self._cg[q][k]
        self._cg = {q: C @ gram_target.to_numpy() for q, C in self.cands.items()}
        # self._masks[d][k]: the masks of the depths after d for candidate k
        # at d; self._bits[q, q2, b, start]: for the candidates of norm q in
        # the block from start (at most 2^16 products a block), the masks of
        # the candidates of norm q2 with inner product b
        self._masks, self._bits = [[None] * len(self.cands[q]) for q in self.norms], {}
        self._block = max(1, min(64, (1 << 16) // max(1, *map(len, self.cands.values()))))
        self._number = {}       # norm: {candidate as a tuple: its number}, when first asked
        # per depth, the sublattice rows decided there: for each earlier depth
        # the residues of its candidates times the row coefficient as tuples of
        # Python ints, the moduli, and the bitsets of the candidates by residue
        self.checks = [[] for _ in range(n)]
        for S in sublattices:
            rows = [list(r)[::-1] for r in hnf_rows([list(r)[::-1] for r in S.rows])]
            V, mods = _quotient_map(S.rows, cmax * max((sum(map(abs, r)) for r in rows),
                                                       default=0))
            res = {q: C.astype(V.dtype) @ V for q, C in self.cands.items()}
            for r in rows:
                *before, d = [t for t in range(n) if r[t]]
                classes: dict[tuple, int] = {}
                for k, c in enumerate(map(tuple, (r[d] * res[self.norms[d]] % mods).tolist())):
                    classes[c] = classes.get(c, 0) | 1 << k
                self.checks[d].append(
                    ([(t, list(map(tuple, (r[t] * res[self.norms[t]] % mods).tolist())))
                      for t in before], mods.tolist(), classes))

    def _passing(self, depth, chosen) -> int:
        """The candidates of depth that pass the rows decided there."""
        bits = -1
        for parts, mods, classes in self.checks[depth]:
            base = [0] * len(mods)
            for t, R in parts:
                base = map(add, base, R[chosen[t]])
            bits &= classes.get(tuple(-b % m for b, m in zip(base, mods)), 0)
        return bits

    def _masks_of(self, d, k):
        """The masks of the depths after d for candidate k at d, set for its
        block at once; depths share them, as a mask only depends on the two
        norms and on the inner product b asked."""
        masks = self._masks[d][k]
        if masks is None:
            q, start = self.norms[d], k - k % self._block
            later = [(self.norms[e], int(self._gs[d, e])) for e in range(d + 1, self.n)]
            for q2, b in later:
                if (q, q2, b, start) not in self._bits:
                    eq = self._cg[q][start:start + self._block] @ self.cands[q2].T == b
                    self._bits[q, q2, b, start] = [int.from_bytes(r.tobytes(), "little") for r
                                                   in np.packbits(eq, axis=1, bitorder="little")]
            size = min(self._block, len(self.cands[q]) - start)
            self._masks[d][start:start + size] = \
                list(zip(*(self._bits[q, q2, b, start] for q2, b in later))) or [()] * size
            masks = self._masks[d][k]
        return masks

    def extend(self, fixed):
        """Complete fixed images to a full isometry; None if impossible.

        fixed holds the images of e_0, e_1, ... in order, each a vector of
        its shell, else NotSupported is raised.  Only candidates passing
        the sublattice rows of their depth become nodes."""
        n = self.n
        # live[i]: the candidates of depth len(chosen) + i left by the choices
        live = tuple((1 << len(self.cands[q])) - 1 for q in self.norms)
        chosen = []
        for depth, v in enumerate(np.asarray(fixed, dtype=np.int64).reshape(-1, n).tolist()):
            q = self.norms[depth]
            if q not in self._number:
                self._number[q] = {c: k for k, c in enumerate(map(tuple, self.cands[q].tolist()))}
            k = self._number[q].get(tuple(v))
            if k is None:
                raise NotSupported(f"fixed image {v} of e_{depth} is not in its shell")
            if self.checks[depth] and not self._passing(depth, chosen) >> k & 1:
                return None
            chosen.append(k)
            live = tuple(map(and_, live[1:], self._masks_of(depth, k)))

        masks_of, memo = self._masks_of, self._masks

        def rec(depth, live):
            self.nodes += 1
            if self.nodes > self.budget:
                raise ScaleLimit(f"isometry search reached {self.nodes} nodes, "
                                 f"over the budget of {self.budget}")
            if depth == n:
                return True
            bits = live[0]
            if self.checks[depth]:
                bits &= self._passing(depth, chosen)
            later = live[1:]
            while bits:
                low = bits & -bits
                bits ^= low
                k = low.bit_length() - 1
                chosen.append(k)
                masks = memo[depth][k] or masks_of(depth, k)
                if rec(depth + 1, tuple(map(and_, later, masks))):
                    return True
                chosen.pop()
            return False

        if rec(len(chosen), live):
            return Mat(np.array([self.cands[q][k] for q, k in zip(self.norms, chosen)]).T.tolist())
        return None


def _quotient_map(rows, vmax: int):
    """(V, mods): a vector v with |entries| <= vmax lies in the row lattice
    of rows exactly when v @ V is divisible by mods.  With U rows V = D in
    Smith form, that is (v V)_i divisible by d_i, where d_i = 0 past the
    rank; d_i = 1 is dropped and d_i = 0 becomes a modulus above |(v V)_i|.
    The entries are int64 if that modulus is below 2^62, else Python ints."""
    n = len(rows[0])
    _, D, V = smith_normal_form(Mat(rows))
    d = [D[i, i] if i < D.nrows else 0 for i in range(n)]
    keep = [i for i in range(n) if d[i] != 1]
    cols = [[V[r, i] for i in keep] for r in range(n)]
    bound = n * vmax * max((abs(x) for r in cols for x in r), default=0)
    dtype = np.int64 if bound < 1 << 62 else object
    return (np.array(cols, dtype=dtype).reshape(n, len(keep)),
            np.array([d[i] or bound + 1 for i in keep], dtype=dtype))


def isometry_test(L: QuadLattice, K: QuadLattice, budget: int = 10**7) -> Mat | None:
    """An exact matrix g with t(g) gram_K g = gram_L, or None.

    Fast rejection first on rank, determinant, level, and shell counts.
    The search runs on the search bases of both lattices (search_basis),
    and its map is conjugated back and checked exactly.
    """
    if L.rank != K.rank:
        return None
    if L.disc() != K.disc() or L.level() != K.level():
        return None
    UL, RL = search_basis(L.gram, L.minors)
    UK, RK = search_basis(K.gram, K.minors)
    bound = max(max(RL[i, i] for i in range(L.rank)),
                max(RK[i, i] for i in range(K.rank))) // 2
    if shell_counts(L, bound) != shell_counts(K, bound):
        return None
    bt = _Backtracker(RK, RL, budget)
    g = bt.extend([])
    if g is None:
        return None
    # t(g) RK g = RL, with RK = UK gram_K t(UK) and RL likewise
    if UK is not None:
        g = UK.transpose() @ g
    if UL is not None:
        g = g @ UL.inverse().transpose()
    if g.transpose() @ K.gram @ g != L.gram:
        raise NotIsometric("the search returned a map that is not an isometry")
    return g


def aut_order_and_gens(L: QuadLattice, sublattices: list[Mat] = (),
                       budget: int = 10**7) -> tuple[int, list[Mat]]:
    """Order and generators of the isometries preserving every sublattice.

    Stabilizer chain over the standard basis, from the last vector to the
    first (Plesken and Souvignier, J. Symbolic Comput. 24, 1997): the order
    is the product over d of the orbit size of e_d under the isometries
    fixing e_0..e_{d-1}.  The generators found so far permute the candidate
    images of e_d, the hits, whose Gram rows start with (gram[j, d])_{j<d},
    so only hits outside the orbit of e_d and every failed orbit are
    extended: a success joins the generators, which generate the group
    (Schreier-Sims), and a failure marks its orbit failed.  budget caps the
    nodes of the one search, which admits far larger groups than one per hit.
    The chain runs over the search basis R = U gram t(U) (search_basis),
    with the sublattice rows in its coordinates, and the generators are
    conjugated back to the basis of L.
    """
    n = L.rank
    U, R = search_basis(L.gram, L.minors)
    if U is not None:
        Ui = U.inverse()
        sublattices = [S @ Ui for S in sublattices]
    bt = _Backtracker(R, R, budget, sublattices)
    G, eye = bt._gs, np.eye(n, dtype=np.int64)
    order, gens, moves = 1, [], []      # moves[i]: gens[i] transposed
    for depth in reversed(range(n)):
        C = bt.cands[R[depth, depth] // 2]
        hits = C[(C @ G[:, :depth] == G[depth, :depth]).all(axis=1)]
        number = {c: k for k, c in enumerate(map(tuple, hits.tolist()))}
        # the hits known so far: True in the orbit of e_d, False in a failed
        # orbit; perms[i]: the numbers of the images of the hits under gens[i]
        known, perms = {number[tuple(eye[depth].tolist())]: True}, []
        for k in range(len(hits)):
            if k in known:
                continue
            g = bt.extend([*eye[:depth], hits[k]])
            if g is not None:
                gens.append(g)
                moves.append(g.to_numpy().T)
            known[k] = g is not None
            perms += [[number[c] for c in map(tuple, (hits @ m).tolist())]
                      for m in moves[len(perms):]]
            stack = list(known)     # add their orbits, each with its own value
            while stack:
                j = stack.pop()
                for p in perms:
                    if p[j] not in known:
                        known[p[j]] = known[j]
                        stack.append(p[j])
        order *= sum(known.values())
    if U is not None:
        # g' on R is t(U) g' t(U)^-1 on the basis of L
        gens = [U.transpose() @ g @ Ui.transpose() for g in gens]
    return order, gens


def aut_order(obj, budget: int = 10**7) -> int:
    """Order of the simultaneous stabilizer of a chain (or a single lattice)."""
    if isinstance(obj, QuadLattice):
        return aut_order_and_gens(obj, (), budget)[0]
    return aut_order_and_gens(obj.L1, obj.coords[1:], budget)[0]


# ---------------------------------------------------------------------------
# Chains of modular sublattices.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamodularChain:
    """Nested lattices, the j-th one t_j-modular, in coordinates of the first.

    A chain also keeps the residue histograms that thetaser.chain2_eval
    builds for it, one per (member, M) at the largest bound asked for so
    far; an evaluation at smaller bounds reads a prefix and enumerates
    nothing.  Construction builds none of them.
    """

    L1: QuadLattice
    coords: tuple[Mat, ...]
    T: tuple[int, ...]
    # the member lattices, built once while the chain is validated
    members: tuple[QuadLattice, ...] = field(init=False, repr=False, compare=False)
    # the residue histograms of thetaser.chain2_eval, {(member, M): (bound,
    # keys, counts)}, each built at the largest bound asked for so far.
    # Empty until the first evaluation, and never evicted.  chain2_eval needs
    # M^rank <= 2^26, so a chain keeps at most 2 floor(2^(26/rank)) entries:
    # 18 at rank 8, the rank of the paramodularity check, but 16,384 at rank 2
    _histograms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coords) != len(self.T):
            raise DimensionMismatch("one coordinate matrix per scale")
        if not self.T or self.T[0] != 1:
            raise InvalidLevel("the first scale must be 1")
        if self.coords[0] != Mat.identity(self.L1.rank):
            raise InvalidInvariant("the first member must be L1 itself")
        for a, b in zip(self.T, self.T[1:]):
            if b % a:
                raise InvalidLevel("each scale must divide the next")
        members = []
        for j, C in enumerate(self.coords):
            g = C @ self.L1.gram @ C.transpose()
            t = self.T[j]
            # t-modular and t-even
            if any(g[i, i] % (2 * t) for i in range(g.nrows)):
                raise NotEven(f"member {j} is not {t}-even")
            if not rational_inverse(g).scale(t).is_integral():
                raise InvalidInvariant(f"member {j} is not {t}-modular")
            members.append(QuadLattice(g))
        object.__setattr__(self, "members", tuple(members))
        for j in range(len(self.coords) - 1):
            if not lattice_contains(self.coords[j], self.coords[j + 1]):
                raise InvalidInvariant("chain containment fails")

    def member_gram(self, j: int) -> Mat:
        return self.members[j].gram

    def member(self, j: int) -> QuadLattice:
        return self.members[j]


def lattice_contains(A: Mat, B: Mat) -> bool:
    """Row lattice of B inside the row lattice of A."""
    for row in B.rows:
        sol = solve_right(A.transpose(), row)
        if sol is None or not all(isinstance(x, int) for x in sol):
            return False
    return True


def constant_chain(L: QuadLattice, n: int) -> ParamodularChain:
    I = Mat.identity(L.rank)
    return ParamodularChain(L, tuple([I] * n), tuple([1] * n))


def pmodular_coords(L: QuadLattice, p: int, scale: int = 1,
                    budget: int = 10**6) -> list[Mat]:
    """Coordinate rows of the sublattices K with L >= K >= pL that are
    (p*scale)-modular, where L is scale-modular and p is any prime.

    These are the preimages of the maximal totally singular subspaces of the
    reduction mod p of Q / scale, found by one bitset search for every p;
    budget bounds the (p^n - 1)/(p - 1) points of the projective space, which
    are counted before any is listed, and the subspaces of each dimension
    that the search builds.  For all
    K at once, in int64 (Python ints if that could overflow), the check is
    exact: the Gram is divisible by t = p*scale, its diagonal by 2t, and
    det(K)^2 disc(L) = t^n, that is |det(Gram / t)| = 1.  Sorted by rows.
    """
    n = L.rank
    if not is_prime(p):
        raise InvalidLevel(f"p = {p!r} is not a prime")
    if n % 2:
        raise InvalidRank("modular sublattices need even rank")
    bases = _max_singular_subspaces(L, p, scale, budget)
    if not bases:
        return []
    t = p * scale
    B = np.array(bases, dtype=np.int64).reshape(len(bases), -1, n)
    gmax = max(abs(x) for row in L.gram.rows for x in row)
    dtype = np.int64 if n * n * p * p * gmax < 1 << 63 else object
    K = _echelon_preimages(B, p)
    Kd = K.astype(dtype)
    g = Kd @ np.array(L.gram.rows, dtype=dtype) @ Kd.transpose(0, 2, 1)
    if (g % t != 0).any():
        raise IntegralityViolation(f"sublattice Gram is not divisible by {t}")
    if (np.diagonal(g, axis1=1, axis2=2) % (2 * t) != 0).any():
        raise NotEven(f"sublattice is not {t}-even")
    if p ** (2 * (n - B.shape[1])) * abs(L.disc()) != t ** n:
        raise InvalidInvariant(f"sublattice is not {t}-modular")
    return [Mat(rows) for rows in sorted(K.tolist())]


def _echelon_preimages(B, p: int) -> np.ndarray:
    """Hermite forms of the preimages in Z^n of the subspaces mod p with the
    reduced echelon bases B (N, k, n): the row with pivot i as row i and
    p e_i as every other row, so each has determinant p^(n - k)."""
    K = np.tile(p * np.eye(B.shape[2], dtype=np.int64), (len(B), 1, 1))
    K[np.arange(len(B))[:, None], (B != 0).argmax(axis=2)] = B
    return K


def pmodular_sublattices(L: QuadLattice, p: int, budget: int = 10**6) -> list[QuadLattice]:
    """The even p-modular sublattices between L and pL, for unimodular L."""
    return [QuadLattice(K @ L.gram @ K.transpose())
            for K in pmodular_coords(L, p, 1, budget)]


def _max_singular_subspaces(L: QuadLattice, p: int, scale: int, budget: int):
    """Maximal totally singular subspaces of (L/pL, Q/scale mod p), as
    tuples of reduced-echelon basis vectors, for any prime p.

    The rows of a reduced echelon basis of a totally singular subspace are
    singular points of F_p^n (first nonzero entry 1), so a state is the tuple
    of the indices of its rows in the list of singular points, which is
    ordered by leading index.  Each point x gets a bitset of the points w that
    may follow it as a later row: w orthogonal to x, lead(w) > lead(x) and
    x zero at lead(w).  A state grows by the points in the AND of the bitsets
    of its rows, so each subspace is built once, from the span of its rows
    but the last; budget bounds the points of F_p^n, before they are listed,
    and the subspaces of each dimension.
    """
    n = L.rank
    g = L.gram.rows
    if any(x % scale for row in g for x in row) or any(g[i][i] % (2 * scale)
                                                     for i in range(n)):
        raise IntegralityViolation(f"Q / {scale} is not integral")
    points = (p**n - 1) // (p - 1)
    if points > budget:
        raise ScaleLimit(f"the subspace search would list {points} points of the projective "
                         f"space mod {p}, over the budget of {budget}")
    # the form / scale mod 2p keeps Q mod p, and the products stay in int64
    gs = np.array([[x // scale % (2 * p) for x in row] for row in g], dtype=np.int64)
    pts = np.array([v for _, v in _projective_vectors(n, p)], dtype=np.int64)
    sing = pts[(pts @ gs % (2 * p) * pts).sum(axis=1) // 2 % p == 0]
    lead = (sing != 0).argmax(axis=1)
    follow = []
    step = max(1, (1 << 20) // max(len(sing), 1))     # rows per block of the S x S masks
    for start in range(0, len(sing), step):
        blk = sing[start:start + step]
        mask = ((blk @ gs) % p @ sing.T % p == 0) & (blk[:, lead] == 0) \
            & (lead > lead[start:start + step, None])
        follow += [int.from_bytes(r.tobytes(), "little")
                   for r in np.packbits(mask, axis=1, bitorder="little")]
    found, counts = [], [0] * (n // 2)

    def grow(state, bits):
        if len(state) == n // 2:
            found.append(state)
            return
        while bits:
            low = bits & -bits
            bits ^= low
            w = low.bit_length() - 1
            counts[len(state)] += 1
            if counts[len(state)] > budget:
                raise ScaleLimit(f"subspace search reached {counts[len(state)]} subspaces of "
                                 f"dimension {len(state) + 1} of {n // 2}, over the budget "
                                 f"of {budget}")
            grow(state + (w,), bits & follow[w])

    grow((), (1 << len(sing)) - 1)
    if not found:
        return []
    return sorted(tuple(map(tuple, E)) for E in echelon_mod(sing[found], p).tolist())


@dataclass(frozen=True)
class ChainClass:
    representative: ParamodularChain
    stabilizer_order: int
    orbit_size: int


def enumerate_chain_classes(L1: QuadLattice, T, budget: int = 10**7) -> list[ChainClass]:
    """Isometry classes of chains with first member L1, which must be
    unimodular, and scale list T.

    The scales must be squarefree, each dividing the next.  Only the
    distinct scales matter; equal consecutive scales repeat the member.
    The classes come from an orbit ladder (Schmalz's Leiterspiel, 1990), one
    rung for each prime p of each refinement step, taken at the scale s
    reached before it.  A rung lists the candidates of the current member
    M, the (p s)-modular sublattices N with M >= N >= pM, in coordinates of
    L1.  As p does not divide [L1 : M], N is determined by its image in
    L1 / pL1, so the candidates are keyed by the echelon bases mod p of
    their rows.  The stabilizer of the rungs so far, O(L1) on the first,
    permutes those keys, and each orbit's least candidate climbs on, with
    its stabilizer's order and generators from one search, checked against
    the orbit-stabilizer identity at every rung.  The least candidate at
    every rung gives the least tuple of the orbit, in the order of the
    candidates; with no rungs the chain of copies of L1 is the one class.
    budget bounds the nodes of the search for O(L1) and of each
    stabilizer search, one for each orbit at each rung; the subspace step
    keeps pmodular_coords's own bound of 10^6 projective points.
    """
    T = tuple(T)
    if not T or T[0] != 1:
        raise InvalidLevel("the first scale must be 1")
    distinct = [t for i, t in enumerate(T) if not i or t != T[i - 1]]
    rungs = []      # (p, the scale before p)
    for prev, cur in zip(distinct, distinct[1:]):
        if cur % prev or cur // prev < 2:
            raise InvalidLevel("each scale must be a proper multiple of the last")
        f = factor(cur)
        if any(e > 1 for _, e in f):
            raise NonSquareFreeLevel("scales must be squarefree")
        s = prev
        for p in (p for p, _ in f if prev % p):
            rungs.append((p, s))
            s *= p
    if L1.disc() != 1:
        raise InvalidInvariant("member 0 is not 1-modular")
    n = L1.rank
    # the ladder's nodes: the members of the rungs so far, and the order and
    # generators of their stabilizer
    nodes = [([Mat.identity(n)], *aut_order_and_gens(L1, budget=budget))]
    order1 = nodes[0][1]
    for p, s in rungs:
        climbed = []
        for path, order, gens in nodes:
            M = path[-1]
            Ks = pmodular_coords(QuadLattice(M @ L1.gram @ M.transpose()), p, s)
            if not Ks:
                continue
            # N / pM is half of M / pM = L1 / pL1: n / 2 echelon rows
            E = echelon_mod(np.array([K.rows for K in Ks]) @ (M.to_numpy() % p), p)[:, :n // 2]
            find = _row_index(E.reshape(len(Ks), -1))
            # the keys' images under every generator, echelonized in one stack
            moves = np.array([g.to_numpy().T % p for g in gens], dtype=np.int64)
            images = (E @ moves.reshape(-1, 1, n, n)).reshape(-1, n // 2, n)
            perms = find(echelon_mod(images, p).reshape(len(images), -1))
            perms = perms.reshape(len(gens), len(Ks))
            if (perms < 0).any():
                raise NotStabilizing("generator left the candidate set")
            label = _orbit_labels(perms)
            reps = np.flatnonzero(label == np.arange(len(Ks)))
            for r, size in zip(reps, np.bincount(label)[reps].tolist()):
                N = Ks[r] @ M
                stab, stab_gens = aut_order_and_gens(L1, path[1:] + [N], budget)
                if order != stab * size:
                    raise InvalidInvariant("orbit-stabilizer identity failed")
                climbed.append((path + [N], stab, stab_gens))
        nodes = climbed
    scales = [1] + [p * s for p, s in rungs]
    classes = [ChainClass(ParamodularChain(L1, tuple(path[scales.index(t)] for t in T), T),
                          order, order1 // order) for path, order, _ in nodes]
    classes.sort(key=lambda c: tuple(tuple(map(tuple, M.rows))
                                     for M in c.representative.coords))
    return classes


def _row_index(table):
    """The function giving the index of each of its rows among the distinct
    rows of table, or -1: a row is hashed by a wrapping int64 product with
    seeded random weights, redrawn while the table's hashes collide, found
    by binary search, and kept only if it equals that table row: exact."""
    rng = random.Random(0)
    while True:
        w = np.array([rng.getrandbits(63) for _ in range(table.shape[1])], dtype=np.int64)
        order = np.argsort(table @ w)
        hashes = (table @ w)[order]
        if (np.diff(hashes) != 0).all():
            break

    def find(rows):
        pos = order[np.searchsorted(hashes, rows @ w).clip(max=len(order) - 1)]
        return np.where((table[pos] == rows).all(axis=1), pos, -1)

    return find


def _orbit_labels(perms) -> np.ndarray:
    """The least point of each orbit of the permutations (rows of perms): minima
    pulled back along each (a union of cycles) with pointer jumping, until stable."""
    label = np.arange(perms.shape[1])
    while True:
        new = np.minimum(label, label[perms].min(axis=0, initial=len(label)))
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new
