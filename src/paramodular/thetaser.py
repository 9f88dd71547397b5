"""Theta series of chains of nested even modular lattices.

Fourier keys store the doubled Gram matrix of a tuple of vectors, so all
entries are integers and the term attached to a key H is exp(pi i tr(H Z)).
Exact coefficient maps of chains of every length come from one join: a
tuple of Q-values with at most one nonzero member is that member's shell
count, and every other one is counted from the rows of its nonzero members,
one vector of each pair +-x, enumerated only up to the Q that a nonzero
vector of another member leaves, in blocks over slices of the rows and
summed over the signs of the members.  Numeric evaluation carries a
certified tail bound derived from the smallest eigenvalue of Im Z, exact
shell counts inside the truncation range, and a packing-ball bound outside
it.  Two-member chains are evaluated at points with a rational off-diagonal
entry a/M from exact residue histograms: counts of member vectors by (Q(x),
residue mod M), built by one enumeration of each pair +-x and kept on the
chain for every later point, so that a point costs a sum over the histogram
keys and one M-adic transform, not a pass over vectors.
"""

from __future__ import annotations

import cmath
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .errors import (
    EmptyGenus,
    NotApplicable,
    NotInHalfSpace,
    NotSupported,
    ScaleLimit,
    TailTooLarge,
)
from .exactmat import Mat, factor
from .quadlat import (
    ParamodularChain,
    QuadLattice,
    enumeration_basis,
    fincke_pohst_leaves,
    leaf_norms,
    shell_counts,
    shell_vectors,
)


def divisor_sigma3(n: int) -> int:
    """The sum of the cubes of the divisors of n >= 1."""
    out = 1
    for p, e in factor(n):
        out *= (p ** (3 * e + 3) - 1) // (p ** 3 - 1)
    return out


# ---------------------------------------------------------------------------
# Exact Fourier coefficients.
# ---------------------------------------------------------------------------


@dataclass
class ThetaExpansion:
    """Exact counts of vector tuples by doubled Gram, up to a trace bound.

    trace_bound limits the total Q-value of a tuple; shells, minima, and
    ranks of the members are kept for tail certification during evaluation.
    """

    T: tuple[int, ...]
    trace_bound: int
    coefficients: dict[tuple, int]
    shells: list[dict[int, int]]
    minima: list[int]
    ranks: list[int]

    @property
    def degree(self) -> int:
        return len(self.T)


def theta_coefficients(chain: ParamodularChain, trace_bound: int,
                       budget: int = 200 * 10**6) -> ThetaExpansion:
    """Exact tuple counts for every doubled Gram with total Q below the bound,
    and the members' shell counts, from one join for every number of
    members (see _join)."""
    coeffs, shells = _join(chain.L1, chain.coords, trace_bound, budget)
    minima = [min((q for q in s if q > 0), default=1) for s in shells]
    return ThetaExpansion(chain.T, trace_bound, coeffs, shells, minima,
                          [chain.L1.rank] * len(chain.T))


def _join(L1, coords, bound, budget):
    """The tuple counts of one or more members, and the members' shell
    counts {q: count} from shell_counts, one q-tuple at a time in ascending
    order.

    A q-tuple with at most one nonzero member is that member's shell count
    at the diagonal key, and needs no rows.  Every other q-tuple is counted
    by _signed_counts from the rows of its nonzero members, zero and one
    vector of each pair +-x (shell_vectors with half=True).  A member's rows
    only ever meet a nonzero vector of another member, so they are
    enumerated up to the bound less the least minimum of the others.  The
    budget caps each such q-tuple's partial tuples (the rows of its nonzero
    members but the last) and its histogram cells, each charged before it
    is allocated, but not the products with the last member's rows, which
    run in bounded blocks: two members are charged member 1's halved rows
    and at most 4 * bound + 1 cells per q-tuple.
    """
    G1 = L1.gram.to_numpy()
    mats = [C.to_numpy() for C in coords]
    W = [[A @ G1 @ B.T for B in mats] for A in mats]
    members = [QuadLattice(C @ L1.gram @ C.transpose()) for C in coords]
    shells = [shell_counts(K, bound, budget) for K in members]
    minima = [min((q for q in s if q), default=bound + 1) for s in shells]
    rows = [shell_vectors(K.gram, bound - min(minima[:i] + minima[i + 1:], default=bound + 1),
                          budget, half=True, minors=K.minors) for i, K in enumerate(members)]
    n = len(shells)
    pairs = list(combinations(range(n), 2))

    def key(Q, b):
        # the doubled Gram of a q-tuple with the entries b of its pairs
        return tuple(tuple(2 * Q[i] if i == j else b.get((min(i, j), max(i, j)), 0)
                           for j in range(n)) for i in range(n))

    counts: dict[tuple, int] = {}
    work = 0
    for part in product(*shells[:-1]):
        for q in shells[-1]:
            Q = part + (q,)
            if sum(Q) > bound:
                break
            nz = [i for i in range(n) if Q[i]]
            if len(nz) < 2:
                counts[key(Q, {})] = shells[nz[0]][Q[nz[0]]] if nz else 1
                continue
            sub = list(combinations(nz, 2))
            S = [math.isqrt(4 * Q[i] * Q[j]) for i, j in sub]
            radix = [2 * s + 1 for s in S]
            Xs = [rows[i][Q[i]] for i in nz]
            work += math.prod(map(len, Xs[:-1])) + math.prod(radix)
            if work > budget:
                full = [2 * math.isqrt(4 * Q[i] * Q[j]) + 1 for i, j in pairs]
                raise ScaleLimit(f"tuple join reached {work} partial tuples and histogram "
                                 f"cells at the radix {full}, over the budget of {budget}")
            B, C = _signed_counts(Xs, [[W[i][j] for j in nz] for i in nz], S)
            for bs, c in zip(B.tolist(), C.tolist()):
                counts[key(Q, dict(zip(sub, bs)))] = c
    return counts, shells


def _signed_counts(Xs, W, S):
    """The entries b_ab of the doubled Grams of the tuples (+-x_1, ..., +-x_k),
    k >= 2, with x_a a row of Xs[a] and W[a][b] the pairing of the
    coordinates of members a and b: (b, counts), one row of b per Gram, in
    the ascending order of their mixed-radix numbers.

    The Grams of the rows' own tuples are counted by np.bincount in one
    dense histogram of mixed-radix numbers: the digit of the pair (a, b) is
    b_ab + S_ab, as |b_ab| <= S_ab = isqrt(4 q_a q_b) (Cauchy-Schwarz), with
    (1, 2), (1, 3), ..., (2, 3), ... from the most significant down.  A
    block is the outer product of one slice of each member's rows, whole
    from the last member outward while the block meets the last member's
    rows in at most 2^23 tuples; the members' products with those rows and
    with each other are broadcast over it, and no row is copied, so two
    members count X1 @ Y2 + off per block.  Signs s negate b_ab where
    s_a != s_b, and s and -s give the same Gram, so each nonzero cell goes
    to its images under the 2^(k-1) sign patterns with s_1 = 1, which are
    merged and doubled: for two members, 2 (h + flip(h)) on those cells.

    The block products run in float32 when that is exact.  With n the rank,
    Y_a the last member's rows paired with member a at its place and W_ab
    the other pairings at theirs, every product, and every partial sum in
    any order, is an integer of absolute value at most
    lim = off + sum_a n max|X_a| max|Y_a| + sum_(a,b) n^2 max|X_a| max|W_ab| max|X_b|,
    taken once per call.  float32 holds every integer up to 2^24 exactly,
    so when lim < 2^24 the rows, Y and W_ab are cast to float32, whose BLAS
    products give the exact keys; otherwise they stay int64.
    """
    k = len(Xs)
    sub = list(combinations(range(k), 2))
    radix = [2 * s + 1 for s in S]
    place = [math.prod(radix[t + 1:]) for t in range(len(sub))]
    off = sum(s * p for s, p in zip(S, place))
    *P, X = Xs
    Y = [(p * W[a][b]) @ X.T for (a, b), p in zip(sub, place) if b == k - 1]
    inner = [(a, b, p * W[a][b]) for (a, b), p in zip(sub, place) if b < k - 1]
    dtype = _block_dtype(off, X.shape[1], P, Y, inner)
    P = [Xa.astype(dtype, copy=False) for Xa in P]
    Y = [Ya.astype(dtype, copy=False) for Ya in Y]
    inner = [(a, b, Wab.astype(dtype, copy=False)) for a, b, Wab in inner]

    def on(A, *axes):
        # A with its axes on the given axes of a block: one per member
        return A.reshape([A.shape[axes.index(m)] if m in axes else 1 for m in range(k)])

    steps, cap = [], max(1, (1 << 23) // len(X))
    for Xa in reversed(P):
        steps.insert(0, min(len(Xa), cap))
        cap = max(1, cap // len(Xa))
    hist = np.zeros(math.prod(radix), dtype=np.int64)
    for starts in product(*(range(0, len(Xa), st) for Xa, st in zip(P, steps))):
        R = [Xa[a:a + st] for Xa, a, st in zip(P, starts, steps)]
        key = on(R[0] @ Y[0], 0, k - 1)
        for a in range(1, k - 1):
            key = key + on(R[a] @ Y[a], a, k - 1)
        key += off + sum(on(R[a] @ Wab @ R[b].T, a, b) for a, b, Wab in inner)
        hist += np.bincount(key.astype(np.intp, copy=False).ravel(), minlength=len(hist))
        del key  # so that the next block's product is not held beside it
    # the sign patterns up to -1, as the factor of b_ab for each pair (a, b)
    signs = [[s[a] * s[b] for a, b in sub] for s in product((1, -1), repeat=k) if s[0] == 1]
    cells = np.flatnonzero(hist)
    B = np.stack(np.unravel_index(cells, radix), axis=1) - S
    keys, where = np.unique(np.concatenate([np.ravel_multi_index((B * f + S).T, radix)
                                            for f in signs]), return_inverse=True)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, where, np.tile(hist[cells], len(signs)))
    return np.stack(np.unravel_index(keys, radix), axis=1) - S, 2 * counts


def _block_dtype(off, n, P, Y, inner):
    """float32 if lim < 2^24 (see _signed_counts), else int64."""
    top = [int(np.abs(Xa).max()) for Xa in P]
    lim = off + sum(n * top[a] * int(np.abs(Ya).max()) for a, Ya in enumerate(Y)) \
        + sum(n * n * top[a] * int(np.abs(Wab).max()) * top[b] for a, b, Wab in inner)
    return np.float32 if lim < 1 << 24 else np.int64


# ---------------------------------------------------------------------------
# Numeric evaluation with certified tails.
# ---------------------------------------------------------------------------


def _packing_count(q: float, members) -> float:
    """Upper bound on the tuples, one vector of each (minimum, rank) member, with all Q <= q."""
    if q < 0:
        return 0.0
    count = 1.0
    for minimum, rank in members:
        count *= (2.0 * math.sqrt(q / minimum) + 1.0) ** rank
    return count


def _packing_tail(members, bound: int, rate: float) -> float:
    """Certified bound on sum_{q > bound} r(q) exp(-rate q) via ball packing,
    where r(q) counts the tuples of the members with total Q = q."""
    tail = 0.0
    q = bound + 1
    term = _packing_count(q, members) * math.exp(-rate * q)
    while True:
        tail += term
        nxt = _packing_count(q + 1, members) * math.exp(-rate * (q + 1))
        if term == 0.0 or (nxt < 0.5 * term and term < 1e-32 * max(tail, 1.0)):
            tail += 2.0 * nxt
            break
        q += 1
        if q > bound + 10000:
            return math.inf
        term = nxt
    return tail


def theta_eval(exp_: ThetaExpansion, Z, tail_tol: float = 1e-10):
    """Evaluate the truncated series and certify the truncation error: the
    complex value, once its certified tail is below tail_tol."""
    n = exp_.degree
    Z = np.asarray(Z, dtype=complex)
    if Z.shape != (n, n) or not np.allclose(Z, Z.T, atol=1e-12):
        raise NotInHalfSpace("Z must be symmetric of the right size")
    Y = Z.imag
    evs = np.linalg.eigvalsh(Y)
    if evs.min() <= 0:
        raise NotInHalfSpace("Im Z must be positive definite")
    y0 = float(evs.min())
    rate = 2 * math.pi * y0
    tail = _packing_tail(list(zip(exp_.minima, exp_.ranks)), exp_.trace_bound, rate)
    if tail > tail_tol:
        raise TailTooLarge(f"certified tail {tail:.3e} exceeds {tail_tol}")
    total = 0j
    for H, c in exp_.coefficients.items():
        tr = sum(H[i][j] * Z[j, i] for i in range(n) for j in range(n))
        total += c * cmath.exp(1j * math.pi * tr)
    return total


# ---------------------------------------------------------------------------
# Degree-1 helpers and the inversion check.
# ---------------------------------------------------------------------------


# the truncation bounds of the degree-one tail, in the order tried
_BOUNDS = [1]
while _BOUNDS[-1] + max(1, _BOUNDS[-1] // 2) <= 10**6:
    _BOUNDS.append(_BOUNDS[-1] + max(1, _BOUNDS[-1] // 2))


def _tail_bound(minimum: int, rank: int, rate: float, tail_tol: float) -> int:
    """The first B of _BOUNDS, 1, 2, 3, 4, 6, 9, ... (B += max(1, B // 2),
    up to 10^6), with _packing_tail below tail_tol.  The guess, found by
    bisection, is the first B whose tail, estimated from its first two terms
    as a geometric series, is below tail_tol; when it is right, it and its
    predecessor are the only _packing_tail calls, and as the tail falls with
    B, the walk on from a wrong guess ends at the same B as a call per step."""
    def term(q):
        return _packing_count(q, [(minimum, rank)]) * math.exp(-rate * q)

    k = min(bisect_left(_BOUNDS, True, key=lambda B: (a := term(B + 1)) * a
                        <= tail_tol * (a - term(B + 2))), len(_BOUNDS) - 1)
    while _packing_tail([(minimum, rank)], _BOUNDS[k], rate) >= tail_tol:
        k += 1
        if k == len(_BOUNDS):
            raise TailTooLarge("cannot certify the tail at this point")
    while k and _packing_tail([(minimum, rank)], _BOUNDS[k - 1], rate) < tail_tol:
        k -= 1
    return _BOUNDS[k]


def theta1_value(L: QuadLattice, z: complex, tail_tol: float = 1e-12,
                 budget: int = 200 * 10**6) -> complex:
    """Degree-1 theta value with certified truncation, from one enumeration.

    On nonzero vectors Q is at least m0 = ceil(min_i D_i), where the pivots
    D_i of Q are ratios of the leading principal minors of the enumeration
    basis, which shell_counts enumerates.  One enumeration
    runs to the bound B0 that m0 certifies.  Its counts give the true
    minimum, which certifies the bound B <= B0 that the minimum alone gives,
    and the sum runs over q <= B.  When they hold no nonzero vector, the sum
    up to B0 is 1, and m0 certifies it.  Only when m0 certifies no bound does
    the value take more enumerations."""
    y = z.imag
    if y <= 0:
        raise NotInHalfSpace("z must have positive imaginary part")
    rate = 2 * math.pi * y
    P = enumeration_basis(L.gram, L.minors)[2]
    m0 = min(-(-P[i + 1] // (2 * P[i])) for i in range(L.rank))
    try:
        B0 = _tail_bound(m0, L.rank, rate, tail_tol)
    except TailTooLarge:
        B0 = m0 = 0         # the true minimum may still certify a bound
    counts = shell_counts(L, B0, budget)
    # with no nonzero vector up to B0 >= 1, the counts hold Q = 0 only, so
    # the sum is 1 at B0 and at every smaller bound that the minimum could
    # certify: B0 stands
    mn = min((q for q in counts if q), default=m0) or L.min_positive()
    B = B0 if mn == m0 else _tail_bound(mn, L.rank, rate, tail_tol)
    if B > B0:
        counts = shell_counts(L, B, budget)
    return sum(c * cmath.exp(2j * math.pi * q * z) for q, c in counts.items() if q <= B)


def inversion_check(L: QuadLattice, z: complex, tol: float = 1e-8) -> bool:
    """Transformation under z -> -1/z for a single even lattice.

    Compares the dual-lattice series at -1/z against sqrt(z/i)^m sqrt(disc)
    times the series at z.  The dual series is evaluated through the level
    rescaling, which has integral even Gram.  Per lattice this takes one
    exact inverse, for the dual and the level, and one enumeration.
    """
    if z.imag <= 0:
        raise NotInHalfSpace("z must be in the upper half plane")
    dual, N = L.dual_and_level()
    dual_scaled = QuadLattice(dual.scale(N))
    w = -1 / z
    lhs = theta1_value(dual_scaled, w / N)
    disc = L.disc()
    # the principal root is continuous on the half plane and positive on i R_+
    root = cmath.sqrt(z / 1j)
    rhs = root ** L.rank * math.sqrt(disc) * theta1_value(L, z)
    return abs(lhs - rhs) <= tol * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# Genus averaging and the degree-1 comparison series.
# ---------------------------------------------------------------------------


@dataclass
class GenusTheta:
    classes: list[tuple[ThetaExpansion, int]]   # (expansion, stabilizer order)
    total_weight: Fraction
    averaged: dict[tuple, Fraction]


def genus_theta(class_data, trace_bound: int) -> GenusTheta:
    """Weighted average of class expansions; weights are 1/|O(chain)|."""
    if not class_data:
        raise EmptyGenus("no classes given")
    pairs = []
    total = Fraction(0)
    for cls in class_data:
        exp_ = theta_coefficients(cls.representative, trace_bound)
        pairs.append((exp_, cls.stabilizer_order))
        total += Fraction(1, cls.stabilizer_order)
    averaged: dict[tuple, Fraction] = {}
    for exp_, order in pairs:
        for H, c in exp_.coefficients.items():
            averaged[H] = averaged.get(H, Fraction(0)) + Fraction(c, order)
    for H in averaged:
        averaged[H] /= total
    return GenusTheta(pairs, total, averaged)


def eisenstein_compare_deg1(gt: GenusTheta, k: int, terms: int) -> dict:
    """Coefficientwise comparison against 1 + c sum sigma_{k-1}(l) q^l.

    Applies to weight-k degree-1 level-1 data with k = 4; the normalization c
    is fixed by the first nonzero coefficient.
    """
    if k % 4 or not gt.classes or gt.classes[0][0].degree != 1:
        raise NotApplicable("only degree-1 level-1 weight 0 mod 4 data")
    series: dict[int, Fraction] = {}
    for H, c in gt.averaged.items():
        q = H[0][0] // 2
        series[q] = c
    if series.get(0) != 1:
        raise NotApplicable("constant term must be 1")
    ell1 = series.get(1)
    if not ell1:
        raise NotApplicable("first coefficient vanishes; cannot normalize")
    c0 = ell1 / divisor_sigma3(1) if k == 4 else None
    if c0 is None:
        raise NotApplicable("only k = 4 comparison series implemented")
    mismatches = {}
    for ell in range(1, terms + 1):
        want = c0 * divisor_sigma3(ell)
        got = series.get(ell, Fraction(0))
        if got != want:
            mismatches[ell] = (got, want)
    return {"normalization": c0, "terms": terms, "mismatches": mismatches}


# ---------------------------------------------------------------------------
# Paramodularity: translation generators exactly, the flip numerically.
# ---------------------------------------------------------------------------


class CZ:
    """Complex numbers with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return CZ(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return CZ(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return CZ(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    def __neg__(self):
        return CZ(-self.re, -self.im)

    def inv(self):
        d = self.re * self.re + self.im * self.im
        return CZ(self.re / d, -self.im / d)

    def __truediv__(self, o):
        return self * o.inv()

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self):
        return f"CZ({self.re}, {self.im})"


def _cz_matrix_inverse2(M):
    a, b, c, d = M[0][0], M[0][1], M[1][0], M[1][1]
    det = a * d - b * c
    inv = det.inv()
    return [[d * inv, -b * inv], [-c * inv, a * inv]]


def flip_image(T: tuple[int, int], Z):
    """Exact image of Z under the paramodular flip, Z -> -(T Z T)^{-1}."""
    t1, t2 = T
    W = [[Z[0][0] * CZ(t1 * t1), Z[0][1] * CZ(t1 * t2)],
         [Z[1][0] * CZ(t1 * t2), Z[1][1] * CZ(t2 * t2)]]
    Winv = _cz_matrix_inverse2(W)
    return [[-Winv[0][0], -Winv[0][1]], [-Winv[1][0], -Winv[1][1]]]


def default_flip_points(T: tuple[int, int]):
    """Sample points whose flip images keep a diagonal imaginary part and a
    small-denominator rational off-diagonal entry, so both sides admit a
    certified box truncation.  Specific to T = (1, 2)."""
    if tuple(T) != (1, 2):
        raise NotSupported("built-in sample points cover level (1, 2) only")
    data = [
        (Fraction(0), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(0), Fraction(1, 2), Fraction(-1, 2)),
        (Fraction(3, 10), Fraction(2, 5), Fraction(1, 2)),
        (Fraction(-3, 10), Fraction(2, 5), Fraction(1, 2)),
        (Fraction(3, 10), Fraction(2, 5), Fraction(-1, 2)),
    ]
    points = []
    for x, y, s in data:
        Z = [[CZ(x, y), CZ(s, 0)], [CZ(s, 0), CZ(-x, y)]]
        points.append(Z)
    return points


def _bound_for_tail(minimum: int, rank: int, rate: float, tol: float) -> int:
    B = max(2, minimum)
    while _packing_tail([(minimum, rank)], B, rate) > tol:
        B += max(1, B // 4)
        if B > 10**6:
            raise TailTooLarge("no certifiable truncation bound")
    return B


_EVAL_BUDGET = 500 * 10**6


def residue_histogram(gram: Mat, M: int, bound: int, budget: int = _EVAL_BUDGET,
                      minors=None):
    """Exact counts of the vectors x with Q(x) <= bound by (Q(x), x mod M).

    The residue x mod M of a row vector x is read as the base-M number
    r = sum_i (x_i mod M) M^i.  Returns the sorted int64 keys q M^n + r that
    occur, with their int64 counts.  One enumeration of zero and one vector
    of each pair +-x fills the histogram; -x has the residue -r digitwise.
    A residue map acts on the few distinct keys afterwards (see _remap),
    and so does the enumeration basis R = U gram U^T: x = y U for its rows y,
    so x mod M = y (U mod M) mod M.  minors, gram's leading principal
    minors, go to enumeration_basis.

    The budget caps the candidates of the enumeration, one per pair +-x.
    Every call enumerates; the histograms of a chain's members are kept on
    the chain instead (see _member_histogram).
    """
    n = gram.nrows
    U, R, _ = enumeration_basis(gram, minors)
    G = R.to_numpy()
    powers = M ** np.arange(n, dtype=np.int64)
    nbuck = M**n
    keys, counts = [], []
    # the residue, like Q, is computed once per prefix and finished on x_0;
    # small chunks keep the arrays of one step in cache and the peak low
    for X, idx, x0 in fincke_pohst_leaves(R, bound, 1 << 16, budget, half=True):
        P, q = leaf_norms(G, X, idx, x0)
        rp = P % M @ powers[1:]
        keep = q <= bound
        k, c = np.unique((q * nbuck + rp[idx] + x0 % M)[keep], return_counts=True)
        keys.append(k)
        counts.append(c)
    keys, counts = _merge(np.concatenate(keys), np.concatenate(counts))
    # add -x for every nonzero x, which only lacks Q = 0
    nz = keys >= nbuck
    neg = _recode(keys[nz], M, n, lambda d: -d % M)
    keys, counts = _merge(np.concatenate([keys, neg]), np.concatenate([counts, counts[nz]]))
    return _remap(keys, counts, M, n, None if U is None else [[x % M for x in r] for r in U.rows])


def _remap(keys: np.ndarray, counts: np.ndarray, M: int, n: int, rmap):
    """The histogram by the residues x @ rmap mod M, from the one by x mod M,
    since x @ rmap mod M depends only on x mod M."""
    if rmap is None:
        return keys, counts
    R = np.asarray(rmap, dtype=np.int64)
    return _merge(_recode(keys, M, n, lambda d: d @ R % M), counts)


def _recode(keys: np.ndarray, M: int, n: int, f) -> np.ndarray:
    """Keys q M^n + r with the residue digits of r replaced by f(digits)."""
    powers = M ** np.arange(n, dtype=np.int64)
    q, r = np.divmod(keys, M**n)
    return q * M**n + f(r[:, None] // powers % M) @ powers


def _merge(keys: np.ndarray, counts: np.ndarray):
    """Sorted distinct keys with their summed counts."""
    order = np.argsort(keys)
    keys, counts = keys[order], counts[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(counts, starts)


def _flip_setup(chain: ParamodularChain, Z, tail_tol: float):
    """Checks a sample point of chain2_eval and returns its data: the
    off-diagonal denominator M and numerator a mod M, the member minima, the
    tail rates and the first truncation bounds."""
    if len(chain.T) != 2:
        raise NotSupported("the bucketed evaluator is specific to two members")
    z11, z12, z22 = Z[0][0], Z[0][1], Z[1][1]
    if Z[1][0].re != z12.re or Z[1][0].im != z12.im:
        raise NotInHalfSpace("Z must be symmetric")
    if z12.im != 0:
        raise NotSupported("off-diagonal entry must be real at sample points")
    y1, y2 = z11.im, z22.im
    if y1 <= 0 or y2 <= 0:
        raise NotInHalfSpace("Im Z must be positive definite")
    mrank = chain.L1.rank
    M = z12.re.denominator
    a = z12.re.numerator % M
    if M**mrank > 1 << 26:
        raise NotSupported("off-diagonal denominator too large to bucket")
    minima = [chain.member(j).min_positive() for j in range(2)]
    rates = [2 * math.pi * float(y1), 2 * math.pi * float(y2)]
    bounds = [_bound_for_tail(mn, mrank, rate, tail_tol / 4)
              for mn, rate in zip(minima, rates)]
    return M, a, minima, rates, bounds


# guards the replacement of an entry of a chain's histogram store
_STORE_LOCK = threading.Lock()


def _member_histogram(chain: ParamodularChain, j: int, M: int, bound: int, rmap):
    """The residue histogram of member j at Q <= bound, from the chain's
    store: a prefix of the entry for (j, M) when its bound is at least this
    one, else a fresh build at this bound, which replaces the entry unless
    another thread has meanwhile stored a larger one.  The entry is read once,
    so a concurrent replacement cannot cut the prefix short."""
    kept, n = chain._histograms, chain.L1.rank
    entry = kept.get((j, M))
    if entry is None or entry[0] < bound:
        member = chain.member(j)
        entry = (bound, *residue_histogram(member.gram, M, bound, _EVAL_BUDGET, member.minors))
        with _STORE_LOCK:
            if kept.get((j, M), (-1,))[0] < bound:
                kept[(j, M)] = entry
    _, keys, counts = entry
    end = int(np.searchsorted(keys, (bound + 1) * M**n))
    return _remap(keys[:end], counts[:end], M, n, rmap)


def _chain_histograms(chain: ParamodularChain, M: int, B1: int, B2: int):
    """Residue histograms of the two members: member 1 by the pairing with
    the member-2 basis, member 2 by its own coordinates, both mod M."""
    C1, C2 = (C.to_numpy() for C in chain.coords)
    W = C2 @ chain.L1.gram.to_numpy() @ C1.T        # b(member2 basis, member1 basis)
    return (_member_histogram(chain, 0, M, B1, W.T),
            _member_histogram(chain, 1, M, B2, None))


def chain2_eval(chain: ParamodularChain, Z, tail_tol: float = 1e-10):
    """Certified theta value of a two-member chain at an exact point.

    Z is a 2x2 matrix of CZ entries with exactly diagonal imaginary part and
    rational off-diagonal entry a/M.  Returns (value, certified_tail).  The
    value is the truncated double sum over x1 in member 1, x2 in member 2 of
    e(Q(x1) z11 + b(x1, x2) a/M + Q(x2) z22), where e(t) = exp(2 pi i t).
    It depends on x2 only through (Q(x2), x2 mod M) and on x1 only through
    (Q(x1), b(x1, .) mod M), so it is evaluated from the two exact residue
    histograms (see residue_histogram): member 2's rows are weighted by
    e(q z22) and summed per residue, an M-adic transform along each axis
    gives the inner sum for every residue of member 1, and member 1's rows
    are summed against it and weighted by e(q z11).  Histogram row sums give
    the full sums that certify the tail.

    The histograms are kept on the chain, one per (member, M) at the largest
    bound built so far (see _member_histogram): a call whose bounds are no
    larger than the kept ones enumerates nothing, and the value is the same
    bits as from a fresh build, since a prefix of a larger histogram equals
    it.  Each build enumerates under residue_histogram's default budget.
    """
    M, a, (mn1, mn2), (rate1, rate2), (B1, B2) = _flip_setup(chain, Z, tail_tol)
    mrank = chain.L1.rank
    nbuck = M**mrank
    z11c = Z[0][0].to_complex()
    z22c = Z[1][1].to_complex()
    # discrete transform kernel exp(2 pi i a w c / M), applied on every axis
    kern = np.exp(2j * math.pi * a * np.outer(np.arange(M), np.arange(M)) / M)
    for _attempt in range(4):
        tail1 = _packing_tail([(mn1, mrank)], B1, rate1)
        tail2 = _packing_tail([(mn2, mrank)], B2, rate2)
        (k1, c1), (k2, c2) = _chain_histograms(chain, M, B1, B2)

        q2, r2 = np.divmod(k2, nbuck)
        w = c2 * np.exp(2j * math.pi * np.arange(B2 + 1) * z22c)[q2]
        A = (np.bincount(r2, weights=w.real, minlength=nbuck)
             + 1j * np.bincount(r2, weights=w.imag, minlength=nbuck))
        A = A.reshape((M,) * mrank)
        for axis in range(mrank):
            A = np.tensordot(kern, np.moveaxis(A, axis, 0), axes=(1, 0))
            A = np.moveaxis(A, 0, axis)
        G = A.reshape(-1)

        q1, r1 = np.divmod(k1, nbuck)
        w = c1 * G[r1]
        rows = (np.bincount(q1, weights=w.real, minlength=B1 + 1)
                + 1j * np.bincount(q1, weights=w.imag, minlength=B1 + 1))
        total = np.exp(2j * math.pi * np.arange(B1 + 1) * z11c) @ rows
        S1 = float(np.exp(-rate1 * np.arange(B1 + 1))
                   @ np.bincount(q1, weights=c1, minlength=B1 + 1))
        S2 = float(np.exp(-rate2 * np.arange(B2 + 1))
                   @ np.bincount(q2, weights=c2, minlength=B2 + 1))
        certified = tail1 * (S2 + tail2) + (S1 + tail1) * tail2
        if certified <= tail_tol:
            return total, certified
        # tighten both truncation bounds against the computed full sums
        grow = math.log(4 * certified / tail_tol)
        B1 += int(grow / rate1) + 1
        B2 += int(grow / rate2) + 1
    raise TailTooLarge(f"certified tail {certified:.3e} exceeds {tail_tol}")


def translation_invariance_report(exp_: ThetaExpansion) -> dict:
    """Exact coefficient-level invariance under the translation generators.

    The diagonal generator at slot i needs t_i to divide every Q(x_i); the
    off-diagonal generator at (i, j), i < j, needs t_i to divide b(x_i, x_j).
    Both checks run over every stored key.  Cross violations are keyed
    "i,j", so the report is JSON-serializable.
    """
    n = exp_.degree
    bad_diag = {i: 0 for i in range(n)}
    bad_cross = {f"{i},{j}": 0 for i in range(n) for j in range(i + 1, n)}
    for H in exp_.coefficients:
        for i in range(n):
            if (H[i][i] // 2) % exp_.T[i]:
                bad_diag[i] += 1
            for j in range(i + 1, n):
                if H[i][j] % exp_.T[i]:
                    bad_cross[f"{i},{j}"] += 1
    return {
        "diagonal_violations": bad_diag,
        "cross_violations": bad_cross,
        "exact": not any(bad_diag.values()) and not any(bad_cross.values()),
    }


def paramodularity_check(chain: ParamodularChain, tol: float = 1e-8,
                         tail_tol: float = 1e-10, points=None,
                         coefficient_bound: int = 6) -> dict:
    """Generator-by-generator modularity report for a two-member chain.

    Translations are checked exactly on the coefficients; the flip is checked
    numerically at sample points engineered so both sides admit certified
    truncation.  The weight is half the rank, which must be divisible by 8.
    Each residue histogram is first built at the largest first bound of any
    point that uses it; these builds stay on the chain, so the points below,
    and later checks and evaluations on the chain, take prefixes of them
    unless a tail check grows the bounds.
    """
    if len(chain.T) != 2:
        raise NotSupported("the check is implemented for two-member chains")
    if chain.L1.rank % 8:
        raise NotSupported("rank must be divisible by 8 for trivial character")
    k = chain.L1.rank // 2
    exp_ = theta_coefficients(chain, coefficient_bound)
    report = {"translations": translation_invariance_report(exp_)}
    pts = points if points is not None else default_flip_points(chain.T)
    T = chain.T
    pairs = [(flip_image((T[0], T[1]), Z), Z) for Z in pts]
    largest: dict[int, tuple[int, int]] = {}
    for pair in pairs:
        for P in pair:
            M, _, _, _, (B1, B2) = _flip_setup(chain, P, tail_tol)
            b1, b2 = largest.get(M, (0, 0))
            largest[M] = (max(b1, B1), max(b2, B2))
    for M, (B1, B2) in largest.items():
        _chain_histograms(chain, M, B1, B2)
    flips = []
    for Wm, Z in pairs:
        lhs, taill = chain2_eval(chain, Wm, tail_tol)
        rhs, tailr = chain2_eval(chain, Z, tail_tol)
        # det(T Z) ** -k times the flipped value
        z = np.array([[Z[0][0].to_complex(), Z[0][1].to_complex()],
                      [Z[1][0].to_complex(), Z[1][1].to_complex()]])
        detTZ = np.linalg.det(np.diag([T[0], T[1]]) @ z)
        defect = abs(lhs * detTZ ** (-k) - rhs)
        flips.append({
            "Z": [[str(Z[i][j]) for j in range(2)] for i in range(2)],
            "defect": defect,
            "tails": (taill, tailr),
            "ok": bool(defect < tol and taill < tail_tol and tailr < tail_tol),
        })
    report["flip"] = flips
    report["ok"] = report["translations"]["exact"] and all(f["ok"] for f in flips)
    return report
