"""Positive definite even lattices: short vectors, isometries, automorphism
orders, modular sublattices, and chains of nested modular lattices.

Grams are stored as the even matrix of the doubled form, so Q(x) is half the
matrix value and all entries stay integral.  Short-vector enumeration has an
exact pure-Python reference path and a chunked numpy path for bulk work; both
filter candidates with exact integer arithmetic, the floating point part only
produces a superset.  The p-modular sublattices between L and pL, for any
prime p, come from one bitset search for the maximal totally singular
subspaces of L/pL.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, sqrt

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
    factor,
    hnf_rows,
    rational_inverse,
    rref_mod,
    solve_right,
)


class QuadLattice:
    """Even positive definite lattice, given by the doubled Gram matrix."""

    def __init__(self, gram: Mat):
        if not gram.is_square() or not gram.is_integral():
            raise NotPositiveDefinite("Gram must be square and integral")
        n = gram.nrows
        for i in range(n):
            if gram[i, i] % 2:
                raise NotEven("diagonal of the doubled Gram must be even")
            for j in range(i):
                if gram[i, j] != gram[j, i]:
                    raise NotPositiveDefinite("Gram must be symmetric")
        # positive definiteness via leading principal minors
        for k in range(1, n + 1):
            if gram.submatrix(0, k, 0, k).det() <= 0:
                raise NotPositiveDefinite("form is not positive definite")
        self.gram = gram
        self.rank = n

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

    def bilinear(self, x, y) -> int:
        g = self.gram
        n = self.rank
        return sum(x[i] * sum(g[i, j] * y[j] for j in range(n))
                   for i in range(n) if x[i])

    def disc(self) -> int:
        return self.gram.det()

    def level(self) -> int:
        """Smallest N with N * Q(dual) integral."""
        inv = rational_inverse(self.gram)
        N = clear_denominators(inv.rows)[1]
        scaled = inv.scale(N)
        if any(scaled[i, i] % 2 for i in range(self.rank)):
            N *= 2
        return N

    def dual_basis(self) -> Mat:
        """Rows are a basis of the dual lattice in the coordinates of this one."""
        return rational_inverse(self.gram)

    def min_positive(self) -> int:
        """Minimum of Q on nonzero vectors."""
        b = 1
        while True:
            counts = shell_counts(self, b)
            for q in range(1, b + 1):
                if counts.get(q):
                    return q
            b *= 2


def invariants(L: QuadLattice):
    return L.level(), L.disc(), L.dual_basis()


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


def fincke_pohst_chunks(gram: Mat, bound, chunk: int = 1 << 19,
                        budget: int = 500 * 10**6):
    """Yield int64 coordinate arrays covering all Q(x) <= bound.

    Floating point bounds include a slack margin, so the union is a superset;
    callers must filter with exact arithmetic.  The budget caps the
    candidates examined, summed over every level of the search.
    """
    for X, idx, x0 in fincke_pohst_leaves(gram, bound, chunk, budget):
        yield _join(X, idx, x0)[:, ::-1]


def _join(X, idx, xs):
    """Rows X[idx] with the column xs appended."""
    Xn = np.empty((len(xs), X.shape[1] + 1), dtype=np.int64)
    # idx is in range by construction, so clip mode only drops the bounds
    # check and the buffered copy of the default mode
    np.take(X, idx, axis=0, out=Xn[:, :-1], mode="clip")
    Xn[:, -1] = xs
    return Xn


def fincke_pohst_leaves(gram: Mat, bound, chunk: int = 1 << 19,
                        budget: int = 500 * 10**6, half: bool = False):
    """The candidates of fincke_pohst_chunks, in the same order, before the
    last coordinate is joined to its prefix: yields (X, idx, x0), where the
    rows of X hold x_{n-1}, ..., x_1 and candidate k is the prefix X[idx[k]]
    with x_0 = x0[k].  Callers that only need functions of the candidates
    can compute the prefix part once per row of X.

    With half=True the candidates are zero and exactly one vector of each
    pair +-x: on the one row whose coordinates above level i are all zero,
    x_i starts at 0, so the last nonzero coordinate is positive.  The
    candidate set is symmetric under x -> -x, so the negatives of the
    nonzero rows complete it to the full enumeration.  The full enumeration
    keeps its order, on which the isometry search's node counts depend.
    """
    n = gram.nrows
    A = gram.to_numpy().astype(float) / 2.0
    D = np.zeros(n)
    U = np.eye(n)
    W = A.copy()
    for i in range(n):
        D[i] = W[i, i]
        if D[i] <= 0:
            raise NotPositiveDefinite("float Cholesky failed")
        U[i, i + 1:] = W[i, i + 1:] / D[i]
        W[i + 1:, i + 1:] -= D[i] * np.outer(U[i, i + 1:], U[i, i + 1:])
    eps = 1e-6 + 1e-9 * float(bound)
    B = float(bound) + eps
    total_seen = 0

    # states hold coordinates x_{n-1},...,x_{i+1} column-wise, and the index
    # of their all-zero row when half is set and the state holds it, else -1
    stack = [(np.zeros((1, 0), dtype=np.int64), np.zeros(1), n - 1, 0 if half else -1)]
    while stack:
        X, partial, i, z = stack.pop()
        u = U[i, i + 1:][::-1]
        c = X @ u if X.shape[1] else np.zeros(len(X))
        s = np.sqrt(np.maximum(B - partial, 0.0) / D[i])
        lo = np.ceil(-c - s - 1e-9).astype(np.int64)
        hi = np.floor(-c + s + 1e-9).astype(np.int64)
        if z >= 0:
            lo[z] = 0
        counts = np.maximum(hi - lo + 1, 0)
        total = int(counts.sum())
        if total == 0:
            continue
        total_seen += total
        if total_seen > budget:
            raise ScaleLimit(f"enumeration reached {total_seen} candidates, "
                             f"over the budget of {budget}")
        idx = np.repeat(np.arange(len(X)), counts)
        offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ranks = np.arange(total) - np.repeat(offs, counts)
        xs = lo[idx] + ranks
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


def shell_counts(L: QuadLattice, bound: int, budget: int = 500 * 10**6) -> dict[int, int]:
    """Exact counts {q: #vectors with Q = q} for q <= bound."""
    G = L.gram.to_numpy()
    counts = np.zeros(bound + 1, dtype=np.int64)
    for X in fincke_pohst_chunks(L.gram, bound, budget=budget):
        qv = ((X @ G) * X).sum(axis=1) // 2
        qv = qv[qv <= bound]
        counts += np.bincount(qv, minlength=bound + 1)
    return {q: int(counts[q]) for q in range(bound + 1) if counts[q]}


def short_vectors(L: QuadLattice, bound: int, budget: int = 500 * 10**6):
    """All x with Q(x) <= bound via the chunked enumerator, as {q: [tuples]}."""
    G = L.gram.to_numpy()
    out: dict[int, list[tuple[int, ...]]] = {}
    for X in fincke_pohst_chunks(L.gram, bound, budget=budget):
        qv = ((X @ G) * X).sum(axis=1) // 2
        keep = qv <= bound
        for row, q in zip(X[keep], qv[keep]):
            out.setdefault(int(q), []).append(tuple(int(v) for v in row))
    return out


def shell_vectors(gram: Mat, bound: int, budget: int = 500 * 10**6) -> dict[int, np.ndarray]:
    """Coordinates with Q(x) <= bound as {q: int64 rows}, each shell in
    enumeration order."""
    G = gram.to_numpy()
    groups: dict[int, list] = {}
    for X in fincke_pohst_chunks(gram, bound, budget=budget):
        qv = ((X @ G) * X).sum(axis=1) // 2
        keep = qv <= bound
        X, qv = X[keep], qv[keep]
        for q in np.unique(qv):
            groups.setdefault(int(q), []).append(X[qv == q])
    return {q: np.concatenate(parts) for q, parts in groups.items()}


# ---------------------------------------------------------------------------
# Isometries and automorphisms (backtracking over short vectors).
# ---------------------------------------------------------------------------


class _Backtracker:
    """Search for linear maps carrying one Gram to another over shells.

    The image of source basis vector d is chosen among the target vectors of
    norm Q(e_d), the candidates, after the images of e_0..e_{d-1}.  Each
    norm's candidates are one int64 matrix, built once in shell order.  At a
    node of depth d a single product of that matrix with the Gram rows of
    the images chosen so far selects the candidates whose inner products
    with them are the source Gram entries, and the hits are walked in shell
    order.  That is the order in which a candidate-by-candidate test visits
    them, so the search tree, and with it the node count that the budget
    caps, is the same.  The products are exact: the constructor raises
    NotSupported unless n^2 * max|Gram| * max|candidate|^2 < 2^63.
    """

    def __init__(self, gram_target: Mat, gram_source: Mat, budget: int = 10**7):
        # columns of a solution g are target-coordinates of the images of
        # the source basis:  t(g) . gram_target . g = gram_source
        self.Gt = gram_target
        self.Gs = gram_source
        self.n = n = gram_source.nrows
        self.budget = budget
        norms = sorted({gram_source[i, i] // 2 for i in range(n)})
        shells = shell_vectors(gram_target, max(norms))
        self.cands = {q: shells.get(q, np.zeros((0, n), dtype=np.int64))
                      for q in norms}
        self.nodes = 0
        self._gt = gram_target.to_numpy()
        self._gs = gram_source.to_numpy()
        self._cmax = max((int(np.abs(C).max()) for C in self.cands.values() if len(C)),
                         default=0)
        gmax = max(abs(x) for row in gram_target.rows for x in row)
        if n * n * gmax * self._cmax ** 2 >= 1 << 63:
            raise NotSupported("candidate inner products may overflow int64")
        # Gram rows of the candidates: the inner products with an image v
        # are self._cg[q] @ v
        self._cg = {q: C @ self._gt for q, C in self.cands.items()}

    def extend(self, fixed, constraints=None):
        """Complete fixed images to a full isometry; None if impossible.

        fixed holds the images of e_0, e_1, ... in order, each a vector of
        its shell.  constraints, when given, is a list of (coeff_row,
        lattice_hnf) pairs: once all coordinates appearing in coeff_row are
        assigned, the image of the combination must reduce to zero against
        the lattice rows.
        """
        n = self.n
        gs = self._gs
        # the constraints that become decidable at each depth
        checks = [[] for _ in range(n)]
        for coeff, hnf in constraints or ():
            support = [t for t in range(n) if coeff[t]]
            if support:
                checks[max(support)].append(
                    (support, [coeff[t] for t in support], hnf))

        images = np.zeros((n, n), dtype=np.int64)   # row d: image of e_d
        rows = np.zeros((n, n), dtype=np.int64)     # row d: gram_target @ images[d]

        def ok_partial(depth):
            for support, coeff, hnf in checks[depth]:
                sel = images[support].tolist()
                vec = [sum(c * v[k] for c, v in zip(coeff, sel)) for k in range(n)]
                if not _in_lattice(vec, hnf):
                    return False
            return True

        fixed = np.asarray(fixed, dtype=np.int64).reshape(-1, n)
        if len(fixed) and int(np.abs(fixed).max()) > self._cmax:
            raise NotSupported("fixed image outside the candidate shells")
        for depth, v in enumerate(fixed):
            images[depth] = v
            rows[depth] = self._gt @ v
            if not ok_partial(depth):
                return None

        def rec(depth):
            self.nodes += 1
            if self.nodes > self.budget:
                raise ScaleLimit(f"isometry search reached {self.nodes} nodes, "
                                 f"over the budget of {self.budget}")
            if depth == n:
                return True
            norm = self.Gs[depth, depth] // 2
            C = self.cands[norm]
            if depth:
                hits = np.flatnonzero(
                    (C @ rows[:depth].T == gs[:depth, depth]).all(axis=1))
            else:
                hits = range(len(C))
            cg = self._cg[norm]
            for k in hits:
                images[depth] = C[k]
                rows[depth] = cg[k]
                if ok_partial(depth) and rec(depth + 1):
                    return True
            return False

        if rec(len(fixed)):
            return Mat(images.T.tolist())
        return None


def _in_lattice(vec, hnf_rows_list) -> bool:
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


def isometry_test(L: QuadLattice, K: QuadLattice, budget: int = 10**7) -> Mat | None:
    """An exact matrix g with t(g) gram_K g = gram_L, or None.

    Fast rejection first on rank, determinant, level, and shell counts.
    """
    if L.rank != K.rank:
        return None
    if L.disc() != K.disc() or L.level() != K.level():
        return None
    bound = max(max(L.gram[i, i] for i in range(L.rank)),
                max(K.gram[i, i] for i in range(K.rank))) // 2
    if shell_counts(L, bound) != shell_counts(K, bound):
        return None
    bt = _Backtracker(K.gram, L.gram, budget)
    g = bt.extend([])
    if g is None:
        return None
    if g.transpose() @ K.gram @ g != L.gram:
        raise NotIsometric("the search returned a map that is not an isometry")
    return g


def aut_order_and_gens(L: QuadLattice, sublattices: list[Mat] = (),
                       budget: int = 10**7) -> tuple[int, list[Mat]]:
    """Order and generators of the isometries preserving every sublattice.

    Stabilizer chain over the standard basis: the order is the product over
    levels of the number of extendable images of each basis vector.  With
    e_0..e_{d-1} fixed, the candidate images of e_d are those whose Gram
    row starts with the Gram entries (gram[j, d])_{j<d}; one comparison of
    the candidates' Gram rows selects them, in shell order.
    """
    n = L.rank
    constraints = []
    for S in sublattices:
        hnf = hnf_rows([list(r) for r in S.rows])
        # constraint rows with short prefixes prune early: echelonize against
        # the reversed coordinate order so each row is supported on a prefix
        rev = hnf_rows([list(r)[::-1] for r in S.rows])
        for row in rev:
            constraints.append((list(row)[::-1], hnf))
    bt = _Backtracker(L.gram, L.gram, budget)
    G = bt._gs
    eye = np.eye(n, dtype=np.int64)
    order = 1
    gens: list[Mat] = []
    for depth in range(n):
        norm = L.gram[depth, depth] // 2
        C = bt.cands[norm]
        hits = np.flatnonzero(
            (bt._cg[norm][:, :depth] == G[depth, :depth]).all(axis=1))
        count = 0
        fixed = eye[:depth + 1].copy()
        for k in hits:
            fixed[depth] = C[k]
            g = bt.extend(fixed, constraints or None)
            if g is not None:
                count += 1
                if not np.array_equal(C[k], eye[depth]):
                    gens.append(g)
        if count < 1:
            raise NotIsometric(f"the identity does not extend at depth {depth}")
        order *= count
    return order, gens


def aut_order(obj, budget: int = 10**7) -> int:
    """Order of the simultaneous stabilizer of a chain (or a single lattice)."""
    if isinstance(obj, QuadLattice):
        return aut_order_and_gens(obj, (), budget)[0]
    subs = [c for c in obj.coords[1:]]
    return aut_order_and_gens(obj.L1, subs, budget)[0]


# ---------------------------------------------------------------------------
# Chains of modular sublattices.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamodularChain:
    """Nested lattices, the j-th one t_j-modular, in coordinates of the first."""

    L1: QuadLattice
    coords: tuple[Mat, ...]
    T: tuple[int, ...]

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
        for j, C in enumerate(self.coords):
            g = self.member_gram(j)
            t = self.T[j]
            # t-modular and t-even
            if any(g[i, i] % (2 * t) for i in range(g.nrows)):
                raise NotEven(f"member {j} is not {t}-even")
            if not rational_inverse(g).scale(t).is_integral():
                raise InvalidInvariant(f"member {j} is not {t}-modular")
        for j in range(len(self.coords) - 1):
            if not lattice_contains(self.coords[j], self.coords[j + 1]):
                raise InvalidInvariant("chain containment fails")

    def member_gram(self, j: int) -> Mat:
        C = self.coords[j]
        return C @ self.L1.gram @ C.transpose()

    def member(self, j: int) -> QuadLattice:
        return QuadLattice(self.member_gram(j))


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
    budget bounds the subspaces of each dimension that it builds.
    """
    n = L.rank
    if not isinstance(p, int) or p < 2 or factor(p) != [(p, 1)]:
        raise InvalidLevel(f"p = {p!r} is not a prime")
    if n % 2:
        raise InvalidRank("modular sublattices need even rank")
    out = []
    for basis in _max_singular_subspaces(L, p, scale, budget):
        rows = [list(v) for v in basis]
        for i in range(n):
            rows.append([p if t == i else 0 for t in range(n)])
        K = Mat(hnf_rows(rows))
        g = K @ L.gram @ K.transpose()
        t = p * scale
        if any(x % t for row in g.rows for x in row):
            raise IntegralityViolation(f"sublattice Gram is not divisible by {t}")
        if any(g[i, i] % (2 * t) for i in range(n)):
            raise NotEven(f"sublattice is not {t}-even")
        scaled = Mat([[x // t for x in row] for row in g.rows])
        if abs(scaled.det()) != 1:
            raise InvalidInvariant(f"sublattice is not {t}-modular")
        out.append(K)
    out.sort(key=lambda M: M.rows)
    return out


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
    but the last; budget bounds the subspaces of each dimension.
    """
    n = L.rank
    g = L.gram.rows
    if any(x % scale for row in g for x in row) or any(g[i][i] % (2 * scale)
                                                     for i in range(n)):
        raise IntegralityViolation(f"Q / {scale} is not integral")
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
    vecs = sing.tolist()
    return sorted(tuple(map(tuple, rref_mod([vecs[x] for x in state], p)))
                  for state in found)


@dataclass(frozen=True)
class ChainClass:
    representative: ParamodularChain
    stabilizer_order: int
    orbit_size: int


def enumerate_chain_classes(L1: QuadLattice, T, budget: int = 10**7) -> list[ChainClass]:
    """Isometry classes of chains with first member L1 and scale list T.

    The scales must be squarefree, each dividing the next.  Only the
    distinct scales matter; equal consecutive scales repeat the
    member.  The candidates for each refinement step are the modular
    sublattices at the new prime, and classes are orbits under the
    automorphisms of L1, with stabilizer orders computed independently and
    checked against the orbit sizes.  budget bounds the nodes of each of
    those automorphism and stabilizer searches.

    Each refinement step keeps p * (previous member) inside the new one, so
    the member M at scale t contains t L1, and M is determined by its image
    in L1 / t L1, that is by its image in L1 / p L1 for each prime p | t.
    Members are keyed and moved by those images: a generator, reduced mod p
    once, acts on the reduced-echelon basis of each image.  The orbits, and
    so the representatives, the stabilizer searches and their node counts,
    are those of the action on the lattices themselves.
    """
    T = tuple(T)
    if not T or T[0] != 1:
        raise InvalidLevel("the first scale must be 1")
    n = L1.rank
    distinct = []
    for t in T:
        if not distinct or t != distinct[-1]:
            distinct.append(t)
    primes = []     # the primes of each distinct scale after the first
    for prev, cur in zip(distinct, distinct[1:]):
        if cur % prev or cur // prev < 2:
            raise InvalidLevel("each scale must be a proper multiple of the last")
        f = factor(cur)
        if any(e > 1 for _, e in f):
            raise NonSquareFreeLevel("scales must be squarefree")
        primes.append([p for p, _ in f])
    # build candidate tuples of coordinate matrices for the distinct scales
    partials = [(Mat.identity(n),)]
    for prev, ps in zip(distinct, primes):
        newparts = []
        for tup in partials:
            mats = [tup[-1]]
            scale_now = prev
            for p in ps:
                if prev % p == 0:
                    continue
                next_mats = []
                for M in mats:
                    ML = QuadLattice(M @ L1.gram @ M.transpose())
                    for K in pmodular_coords(ML, p, scale_now):
                        next_mats.append(K @ M)
                mats = next_mats
                scale_now *= p
            for M in mats:
                newparts.append(tup + (M,))
        partials = newparts
    # expand back to full chains following T
    def expand(tup):
        out = []
        for t in T:
            out.append(tup[distinct.index(t)])
        return tuple(out)

    order1, gens = aut_order_and_gens(L1, budget=budget)
    gens = list({g.rows: g for g in gens}.values())
    # rows of g^T mod p: the image of a row vector v is v g^T
    reduced = {p: [[[x % p for x in col] for col in zip(*g.rows)] for g in gens]
               for p in {p for ps in primes for p in ps}}

    def image_key(M: Mat, ps):
        return tuple(tuple(map(tuple, rref_mod(M.rows, p))) for p in ps)

    seen: dict[tuple, tuple] = {}
    for tup in partials:
        key = tuple(image_key(M, ps) for M, ps in zip(tup[1:], primes))
        if key not in seen:
            seen[key] = tup

    def orbit_partition(used):
        orbits = []
        unvisited = dict(seen)
        while unvisited:
            key0, tup0 = next(iter(unvisited.items()))
            frontier = [key0]
            orbit = {key0}
            del unvisited[key0]
            while frontier:
                key = frontier.pop()
                for gi in range(used):
                    mk = tuple(tuple(_act_mod(basis, reduced[p][gi], p)
                                     for basis, p in zip(member, ps))
                               for member, ps in zip(key, primes))
                    if mk not in orbit:
                        if mk not in seen:
                            raise NotStabilizing("generator left the candidate set")
                        orbit.add(mk)
                        if mk in unvisited:
                            del unvisited[mk]
                        frontier.append(mk)
            orbits.append((tup0, len(orbit)))
        return orbits

    # start with a few generators and enlarge until the orbit-stabilizer
    # identity certifies the partition
    step = max(4, len(gens) // 16)
    used = step
    while True:
        orbits = orbit_partition(min(used, len(gens)))
        classes = []
        good = True
        for tup, size in orbits:
            chain = ParamodularChain(L1, expand(tup), T)
            # a chain of copies of L1 constrains nothing: its stabilizer is O(L1)
            stab = order1 if len(distinct) == 1 else aut_order(chain, budget)
            if order1 != stab * size:
                good = False
                break
            classes.append(ChainClass(chain, stab, size))
        if good:
            break
        if used >= len(gens):
            raise InvalidInvariant("orbit-stabilizer identity failed with all generators")
        used = min(len(gens), used * 2)
    classes.sort(key=lambda c: tuple(tuple(map(tuple, M.rows))
                                     for M in c.representative.coords))
    return classes


def _act_mod(basis, gp, p) -> tuple:
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
