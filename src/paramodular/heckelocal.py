"""Local Hecke theory at a prime p for paramodular groups.

The standard lattice of shape (a, b) has a unimodular and b p-modular
hyperbolic planes.  Lattices commensurable with it are classified against it
by their elementary divisors in the lattice and in its dual; the invariant
tuple (r_minus, r_plus, mu) indexes the double cosets, with block-monomial
representative matrices.

A base lattice is prepared once (a frame, by exact elimination); frames hold
no mutable state, so threads share them.  Each lattice then costs two
products and two Smith divisor lists, and its class is recovered from the
two exponent tuples once per (shape, exponents, dual exponents) in one
bounded cache.  Neighbor candidates are tested for elementarity on one
bordered row of pairings before Hermite form.  The ball of lattices within j
neighbor steps is built once per (shape, j) with each lattice's class;
partitions and left cosets read it, and products keep the frames of its
lattices at index exponent j, once per (shape, j).

Internal representation: a lattice is (rows, k) meaning the row span of
p**(-k) * rows in the coordinates of the standard lattice basis
(e_1..e_n, f_1..f_n), where <e_i, f_i> = 1 for i <= a and p for i > a.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from operator import mul
from typing import NamedTuple

from .approx import sl_lift
from .errors import (
    DimensionMismatch,
    IncompatibleLocals,
    InvalidInvariant,
    InvalidLevel,
    NotElementary,
    NotIsometric,
    ScaleLimit,
)
from .exactmat import (Mat, _projective_vectors, clear_denominators, factor, hnf_rows,
                       is_prime, matmul_int, pairing_int, smith_divisors, valuation)

# ---------------------------------------------------------------------------
# Shapes, invariant tuples, lattices.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalShape:
    p: int
    a: int
    b: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidLevel(f"p = {self.p!r} is not a prime")
        if self.a < 0 or self.b < 0 or self.a + self.b < 1:
            raise InvalidInvariant("bad shape")

    @property
    def n(self) -> int:
        return self.a + self.b

    def gram_rows(self) -> list[list[int]]:
        """Gram of the standard lattice on its own basis."""
        n, p = self.n, self.p
        g = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            t = 1 if i < self.a else p
            g[i][n + i] = t
            g[n + i][i] = -t
        return g


@dataclass(frozen=True)
class LocalDoubleCoset:
    shape: LocalShape
    r_minus: int
    r_plus: int
    mu: tuple[int, ...]

    def __post_init__(self):
        # a tuple, so that classes hash and compare whatever sequence is given
        object.__setattr__(self, "mu", tuple(self.mu))
        a, b, n = self.shape.a, self.shape.b, self.shape.n
        rm, rp, mu = self.r_minus, self.r_plus, self.mu
        if len(mu) != n:
            raise InvalidInvariant("mu must have one entry per plane")
        if not (0 <= rm <= a and 0 <= rp <= b):
            raise InvalidInvariant("r_minus/r_plus out of range")
        segs = [mu[:rm], mu[rm:a], mu[a:a + rp], mu[a + rp:]]
        if any(x < 1 for x in segs[0]) or any(x < 0 for x in mu):
            raise InvalidInvariant("first segment needs mu >= 1")
        for seg in segs:
            if any(seg[i] > seg[i + 1] for i in range(len(seg) - 1)):
                raise InvalidInvariant("segments must be weakly increasing")

    @property
    def a_target(self) -> int:
        return self.shape.a - self.r_minus + self.r_plus

    @property
    def b_target(self) -> int:
        return self.shape.b - self.r_plus + self.r_minus

    @property
    def weight(self) -> int:
        return sum(self.mu)


@dataclass(frozen=True)
class LocalLattice:
    """Public form: columns are generators in standard-lattice coordinates."""

    basis: Mat

    def to_internal(self, p: int) -> tuple[list[list[int]], int]:
        return _normalize(*_clear_p(zip(*self.basis.rows), p), p)

    @classmethod
    def from_internal(cls, rows: list[list[int]], k: int, p: int) -> "LocalLattice":
        d = p**k
        return cls(Mat([[x // d if x % d == 0 else Fraction(x, d) for x in col]
                        for col in zip(*rows)]))


def _normalize(rows, k, p):
    rows = hnf_rows(rows)
    while k > 0 and all(x % p == 0 for r in rows for x in r):
        rows = [[x // p for x in r] for r in rows]
        k -= 1
    return rows, k


def _key(rows, k):
    return (k, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# Classification of a pair (base lattice, moving lattice).
# ---------------------------------------------------------------------------


def _exponents(coord_rows, extra_scale: int, p: int, strict=True) -> tuple[int, ...]:
    """v_p of the elementary divisors of an integer coordinate matrix,
    shifted by extra_scale; in strict mode divisors must be pure p-powers."""
    divs = smith_divisors([list(r) for r in coord_rows])
    if len(divs) != len(coord_rows):
        raise NotIsometric("coordinate matrix is singular")
    out = []
    for d in divs:
        e = valuation(d, p)
        if strict and d != p**e:
            raise NotElementary("lattice is not p-commensurable")
        out.append(e + extra_scale)
    return tuple(out)


def _recover(a: int, b: int, expA: tuple[int, ...], expB: tuple[int, ...]):
    """Solve for the slot data (alphaU, betaU, alphaP, betaP) per scale.

    expA are the exponents of the moving lattice in the base lattice, expB in
    its dual.  Returns (r_minus, r_plus, mu) with mu in slot order.
    """
    A = Counter(expA)
    B = Counter(expB)
    vmax = max([abs(v) for v in expA + expB], default=0) + 1
    aU = {v: 0 for v in range(vmax + 3)}
    bU = dict(aU)
    aP = dict(aU)
    bP = dict(aU)
    for v in range(vmax, 0, -1):
        aP[v] = A[-(v + 1)] - aU[v + 2] - bU[v + 1] - bP[v + 1]
        bP[v] = B[v + 1] - aU[v + 1] - bU[v + 1] - aP[v]
        bU[v] = B[-v] - aU[v + 1] - aP[v] - bP[v + 1]
        aU[v] = A[v] - bU[v] - aP[v] - bP[v]
        if min(aP[v], bP[v], bU[v], aU[v]) < 0:
            raise NotIsometric("inconsistent elementary divisors")
    aP[0] = A[-1] - aU[2] - bU[1] - bP[1]
    t = B[1] - aU[1] - bU[1] - aP[0]
    if t < 0 or t % 2:
        raise NotIsometric("inconsistent elementary divisors")
    bP[0] = t // 2
    t = B[0] - aU[1] - aP[0] - bP[1]
    if t < 0 or t % 2:
        raise NotIsometric("inconsistent elementary divisors")
    bU[0] = t // 2
    aU[0] = 0
    if aP[0] < 0:
        raise NotIsometric("inconsistent elementary divisors")
    # consistency of the zero level and the shape
    if A[0] != 2 * bU[0] + aP[0] + 2 * bP[0] + aU[1]:
        raise NotIsometric("inconsistent elementary divisors")
    listU1 = sorted(v for v in range(1, vmax + 1) for _ in range(aU[v]))
    listUU = sorted(v for v in range(0, vmax + 1) for _ in range(bU[v]))
    listPU = sorted(v for v in range(0, vmax + 1) for _ in range(aP[v]))
    listPP = sorted(v for v in range(0, vmax + 1) for _ in range(bP[v]))
    if len(listU1) + len(listUU) != a or len(listPU) + len(listPP) != b:
        raise NotIsometric("shape mismatch")
    mu = tuple(listU1 + listUU + listPU + listPP)
    return len(listU1), len(listPU), mu


@dataclass(frozen=True)
class _Frame:
    """A base lattice of shape (p, a, b), prepared for classification.

    inv and dual are the least integer multiples of base^-1 and base^-1 H
    (H the base's Gram): the coordinates of p**(-k) * rowspan(M) in the base
    and its dual are M @ inv and M @ dual times p**(shift - k), resp.
    p**(dual_shift - k), and a p-adic unit.  inv is None for the identity.
    A frame holds no mutable state: the classes it finds are kept by
    _class_of, for every frame of the same shape at once.
    """

    shape: LocalShape
    inv: tuple | None
    shift: int
    dual: tuple
    dual_shift: int
    strict: bool


def _frame(p, gram, base_rows, base_k, strict=True) -> _Frame:
    """The frame of the base lattice p**(-base_k) * rowspan(base_rows), gram
    the ambient Gram.  With strict=False only the p-parts matter, so
    globally defined lattices can be classified locally."""
    H = pairing_int(base_rows, gram)
    sc = p ** (2 * base_k)
    if any(x % sc for row in H for x in row):
        raise NotElementary("base lattice is not integral")
    H = [[x // sc for x in row] for row in H]
    detH = abs(Mat(H).det())
    if detH == 0:
        raise NotIsometric("base lattice is degenerate")
    e2b = valuation(detH, p)
    n = len(base_rows) // 2
    if (strict and detH != p**e2b) or e2b % 2 or e2b > 2 * n:
        raise NotElementary("base lattice determinant is not an even p-power")
    inv, c = clear_denominators(Mat(base_rows).inverse().rows)
    if strict and c != p ** valuation(c, p):
        raise NotElementary("base lattice is not p-commensurable")
    # base^-1 H = (inv @ H) / c, in lowest terms
    dual = matmul_int(inv, H)
    g = math.gcd(c, *(x for row in dual for x in row))
    dual, cd = [[x // g for x in row] for row in dual], c // g
    inv = (None if inv == [[int(i == j) for j in range(len(inv))] for i in range(len(inv))]
           else tuple(map(tuple, inv)))
    return _Frame(LocalShape(p, n - e2b // 2, e2b // 2), inv, base_k - valuation(c, p),
                  tuple(map(tuple, dual)), base_k - valuation(cd, p), strict)


@lru_cache(maxsize=64)
def _standard_frame(shape: LocalShape) -> _Frame:
    return _frame(shape.p, shape.gram_rows(), *standard_internal(shape))


def _classify(fr: _Frame, mov_rows, mov_k, dual_coords=None) -> LocalDoubleCoset:
    """Invariant tuple of p**(-mov_k) * rowspan(mov_rows) against the frame's
    base, from its elementary divisors in the base and in the base's dual.
    dual_coords, if given, is mov_rows @ fr.dual."""
    p = fr.shape.p
    coords = mov_rows if fr.inv is None else matmul_int(mov_rows, fr.inv)
    if dual_coords is None:
        dual_coords = matmul_int(mov_rows, fr.dual)
    return _class_of(fr.shape, _exponents(coords, fr.shift - mov_k, p, fr.strict),
                     _exponents(dual_coords, fr.dual_shift - mov_k, p, fr.strict))


@lru_cache(maxsize=4096)
def _class_of(shape: LocalShape, expA: tuple, expB: tuple) -> LocalDoubleCoset:
    """The class with the exponents expA in the base and expB in its dual;
    a pair that _recover rejects raises on every call, as nothing is kept."""
    return LocalDoubleCoset(shape, *_recover(shape.a, shape.b, expA, expB))


def classify_pair(shape: LocalShape, L) -> LocalDoubleCoset:
    """Invariant tuple of L against the standard lattice of the shape."""
    rows, k = L.to_internal(shape.p) if isinstance(L, LocalLattice) else L
    p = shape.p
    fr = _standard_frame(shape)
    # the dual frame of the standard lattice is its Gram, so these products
    # give both the pairing of L and its dual coordinates
    dual_coords = matmul_int(rows, fr.dual)
    H = matmul_int(dual_coords, list(zip(*rows)))
    sc = p ** (2 * k)
    if any(x % sc for row in H for x in row):
        raise NotElementary("lattice is not integral")
    H = [[x // sc for x in row] for row in H]
    for d in smith_divisors(H):
        if d not in (1, p):
            raise NotElementary("lattice has level divisible by p^2")
    return _classify(fr, rows, k, dual_coords)


def _clear_p(rows, p: int) -> tuple[list[list[int]], int]:
    """The rows of p**k * rows for the least k making them integral; the
    denominators must be powers of p."""
    rows, c = clear_denominators(rows)
    k = valuation(c, p)
    if c != p**k:
        raise NotElementary("denominators must be p-powers")
    return rows, k


def _scale_to_int(M: Mat, p: int) -> tuple[list[list[int]], int]:
    """Clear denominators of a rational row matrix; the returned scale k is
    the p-part of the factor used, so the result represents the same
    p-local lattice as M."""
    rows, c = clear_denominators(M.rows)
    return rows, valuation(c, p)


@lru_cache(maxsize=256)
def _rational_frame(gram_amb: Mat, base: Mat, p: int) -> _Frame:
    # callers classify many lattices against one base, so frames are kept
    return _frame(p, [list(r) for r in gram_amb.rows], *_scale_to_int(base, p),
                  strict=False)


def classify_rel_rational(gram_amb: Mat, base: Mat, mov: Mat, p: int) -> LocalDoubleCoset:
    """p-local class of the lattice spanned by the rows of mov against the
    lattice spanned by the rows of base; gram_amb is the ambient Gram."""
    return _classify(_rational_frame(gram_amb, base, p), *_scale_to_int(mov, p))


# ---------------------------------------------------------------------------
# Representatives.
# ---------------------------------------------------------------------------


def _slots(dc: LocalDoubleCoset) -> list[int]:
    """The slot of each plane in the invariant tuple: 0 for the first
    r_minus planes, 1 for the other unimodular ones, 2 for the first r_plus
    p-modular ones and 3 for the other p-modular ones."""
    a, rm, rp = dc.shape.a, dc.r_minus, dc.r_plus
    return [0] * rm + [1] * (a - rm) + [2] * rp + [3] * (dc.shape.b - rp)


def _columns(dc: LocalDoubleCoset) -> list[int]:
    """The column of each plane's entry in the monomial block: the r_plus
    planes go first in the target's unimodular part and the r_minus planes
    first in its p-modular part, each other plane after them in order."""
    shift = (dc.a_target, dc.r_plus - dc.r_minus, -dc.shape.a, 0)
    return [i + shift[t] for i, t in enumerate(_slots(dc))]


def monomial_block(dc: LocalDoubleCoset) -> Mat:
    """The block B of the representative diag(B, tB^{-1}), on standard
    symplectic coordinates; row i carries p**mu_i in the column of its slot."""
    n, p = dc.shape.n, dc.shape.p
    rows = [[0] * n for _ in range(n)]
    for i, (j, e) in enumerate(zip(_columns(dc), dc.mu)):
        rows[i][j] = p ** e
    return Mat(rows)


def representative_matrix(dc: LocalDoubleCoset) -> Mat:
    B = monomial_block(dc)
    n = B.nrows
    Binvt = B.inverse().transpose()
    Z = Mat.zeros(n, n)
    return Mat.from_blocks([[B, Z], [Z, Binvt]])


def representative_lattice(dc: LocalDoubleCoset) -> tuple[list[list[int]], int]:
    """The orbit-representative lattice, internal form, base-lattice coords:
    plane i is spanned by p**mu_i e_i and p**(-mu_i - s_i) f_i, where s_i is
    -1, 0, 1, 0 by slot."""
    n, p = dc.shape.n, dc.shape.p
    shifts = [(-1, 0, 1, 0)[t] for t in _slots(dc)]
    k = max([m + s for m, s in zip(dc.mu, shifts)] + [0])
    rows = []
    for i, (m, s) in enumerate(zip(dc.mu, shifts)):
        e = [0] * (2 * n)
        f = [0] * (2 * n)
        e[i] = p ** (m + k)
        f[n + i] = p ** (k - m - s)
        rows += [e, f]
    return _normalize(rows, k, p)


def transpose_integrality(B: Mat, T: Mat, Tp: Mat) -> bool:
    """Whether T^{-1} tB T' is integral (T the target scales, T' the source)."""
    if B.nrows != T.nrows or B.ncols != Tp.nrows:
        raise DimensionMismatch("size mismatch")
    M = T.inverse() @ B.transpose() @ Tp
    return M.is_integral()


# ---------------------------------------------------------------------------
# Enumeration of invariant tuples with equal source and target shapes.
# ---------------------------------------------------------------------------


def _weakly_increasing(length, total, minval):
    if length == 0:
        if total == 0:
            yield ()
        return
    def rec(remaining, length, lo):
        if length == 1:
            if remaining >= lo:
                yield (remaining,)
            return
        for first in range(lo, remaining + 1):
            for rest in rec(remaining - first, length - 1, first):
                yield (first,) + rest
    yield from rec(total, length, minval)


def enumerate_Tpj(shape: LocalShape, j: int) -> list[LocalDoubleCoset]:
    """All invariant tuples with equal shapes and total exponent j."""
    a, b = shape.a, shape.b
    out = []
    for r in range(min(a, b) + 1):
        lens = (r, a - r, r, b - r)
        mins = (1, 0, 0, 0)
        for split in _compositions(j, 4):
            for segs in iproduct(*[_weakly_increasing(lens[t], split[t], mins[t])
                                   for t in range(4)]):
                mu = segs[0] + segs[1] + segs[2] + segs[3]
                out.append(LocalDoubleCoset(shape, r, r, mu))
    out.sort(key=lambda d: (d.r_minus, d.mu))
    return out


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Neighbors and coset enumeration.
# ---------------------------------------------------------------------------


def neighbor_count_formula(p: int, n1: int, n2: int) -> int:
    """Closed count of index-p neighbors for n1 unimodular and n2 p-modular
    hyperbolic planes."""
    if p < 2 or n1 < 0 or n2 < 0:
        raise InvalidInvariant("the count needs p >= 2 and plane counts >= 0")
    q1 = p ** (2 * n1) - 1
    q2 = p ** (2 * n2) - 1
    # p - 1 divides q1 and q2, so (p - 1)**2 divides every term
    num = p * q1 * q2 + p * (p - 1) * (p ** (2 * n1)) * q2 + p * (p - 1) * (p ** (2 * n2)) * q1
    return num // ((p - 1) ** 2)


def neighbor_bounds_ok(p: int, n1: int, n2: int) -> bool:
    """The stated upper bounds on the neighbor count."""
    n = n1 + n2
    N = neighbor_count_formula(p, n1, n2)
    if p == 2:
        return N < 2 ** (2 * n + 2)
    if p == 3:
        return 4 * N < 5 * 3 ** (2 * n + 1)
    return N < p ** (2 * n + 1)


def _check_budget(n2: int, p: int, budget: int):
    """Raise ScaleLimit if one neighbor search tries more than budget
    candidates."""
    cand_count = ((p**n2 - 1) // (p - 1)) ** 2
    if cand_count > budget:
        raise ScaleLimit(f"{cand_count} candidates exceed the budget")


def neighbors_of(rows, k, p, gram, b_shape):
    """All lattices meeting the given one in index p on both sides.

    gram is the alternating ambient Gram and b_shape the number of p-modular
    planes.  Each candidate is sub + w/p for an index-p sublattice sub and a
    row w = c @ sub.  On the basis p * sub_i (i != the pivot of c) and w, its
    pairings are S_ij / p**2k, (S c)_i / p**(2k+1) and (w, w) = 0, where S is
    the pairing of sub, computed once per sub.  Elementarity, which does not
    depend on the basis, is tested on these, and only candidates that pass
    are brought to Hermite form.  The caller checks the candidate budget.
    """
    n2 = len(rows)
    here = _key(rows, k)
    # every pairing is integral, and divisible by p when all planes are
    # p-modular; with 1 < b_shape < n integrality leaves level p^2 open
    sc = p ** (2 * k)
    q = sc * p if b_shape == n2 // 2 else sc
    qp = q * p
    snf = n2 > 2 and b_shape > 1 and b_shape != n2 // 2
    lines = list(_projective_vectors(n2, p))
    out = {}
    for piv, phi in lines:
        sub = [[x - phi[i] * y for x, y in zip(rows[i], rows[piv])]
               for i in range(n2) if i != piv]
        sub.append([p * x for x in rows[piv]])
        S = pairing_int(sub, gram)
        sub_cols = list(zip(*sub))
        # the rows kept beside pivot t pair well iff every bad pair meets t
        bad = [(i, j) for i, row in enumerate(S) for j, x in enumerate(row) if x % q]
        drop_ok = [all(t in ij for ij in bad) for t in range(n2)]
        kept = [[S[i] for i in range(n2) if i != t] for t in range(n2)]
        # index-p superlattices of sub, excluding the original lattice
        for piv2, cvec in lines:
            if not drop_ok[piv2] or any(sum(map(mul, cvec, row)) % qp
                                        for row in kept[piv2]):
                continue
            keep = [i for i in range(n2) if i != piv2]
            if snf:
                Sc = [sum(map(mul, cvec, row)) // (sc * p) for row in S]
                H = [[S[i][j] // sc for j in keep] + [Sc[i]] for i in keep]
                H.append([-Sc[j] for j in keep] + [0])
                if any(d not in (1, p) for d in smith_divisors(H)):
                    continue
            cand = [[p * x for x in sub[i]] for i in keep]
            cand.append([sum(map(mul, cvec, col)) for col in sub_cols])
            cand, ck = _normalize(cand, k + 1, p)
            key = _key(cand, ck)
            if key != here and key not in out:
                out[key] = (cand, ck)
    return out


def standard_internal(shape: LocalShape):
    n2 = 2 * shape.n
    return [[1 if i == j else 0 for j in range(n2)] for i in range(n2)], 0


def enumerate_neighbors(shape: LocalShape, budget=10**7) -> list[LocalLattice]:
    _check_budget(2 * shape.n, shape.p, budget)
    rows, k = standard_internal(shape)
    found = neighbors_of(rows, k, shape.p, shape.gram_rows(), shape.b)
    return [LocalLattice.from_internal(r, kk, shape.p)
            for (r, kk) in (found[key] for key in sorted(found))]


class BallEntry(NamedTuple):
    rows: list
    k: int
    # invariant tuple against the standard lattice; its weight is the index
    # exponent e: the intersection with the standard lattice has index p**e
    cls: LocalDoubleCoset


_BALL_LOCK = threading.Lock()


def ball(shape: LocalShape, j: int, budget=10**7) -> dict[tuple, BallEntry]:
    """Lattices within j neighbor steps, sorted by key, with their class.

    Results are cached per (shape, j) in a bounded cache; entries are never
    mutated by callers.  The budget is checked before the cache, so it
    limits cached balls too.
    """
    if j > 0:
        _check_budget(2 * shape.n, shape.p, budget)
    return _ball_entries(shape, j)


def _ball_entries(shape: LocalShape, j: int) -> dict[tuple, BallEntry]:
    with _BALL_LOCK:
        return _ball(shape, j)[0]


@lru_cache(maxsize=32)
def _ball(shape: LocalShape, j: int):
    """The ball of radius j and the keys first reached at step j."""
    if j == 0:
        rows, k = standard_internal(shape)
        key = _key(rows, k)
        return {key: _ball_entry(shape, rows, k)}, [key]
    prev, frontier = _ball(shape, j - 1)
    seen = dict(prev)
    reached = []
    gram = shape.gram_rows()
    for key in frontier:
        rows, k = seen[key][:2]
        for nkey, (r, kk) in neighbors_of(rows, k, shape.p, gram, shape.b).items():
            if nkey not in seen:
                seen[nkey] = _ball_entry(shape, r, kk)
                reached.append(nkey)
    return dict(sorted(seen.items())), reached


def _ball_entry(shape: LocalShape, rows, k) -> BallEntry:
    return BallEntry(rows, k, _classify(_standard_frame(shape), rows, k))


def left_cosets(dc: LocalDoubleCoset, budget=10**7) -> list[LocalLattice]:
    """All lattices in the orbit of the representative of dc."""
    if dc.a_target != dc.shape.a or dc.b_target != dc.shape.b:
        raise InvalidInvariant("left cosets require equal source and target shapes")
    part = coset_partition(dc.shape, dc.weight, budget).get(dc, [])
    return [LocalLattice.from_internal(rows, k, dc.shape.p) for rows, k in part]


def coset_partition(shape: LocalShape, j: int, budget=10**7):
    """Partition of all index-p**j lattices by invariant tuple."""
    parts: dict[LocalDoubleCoset, list] = {}
    for entry in ball(shape, j, budget).values():
        if entry.cls.weight == j:
            parts.setdefault(entry.cls, []).append((entry.rows, entry.k))
    return parts


def hecke_product(shape: LocalShape, i: int, j: int, budget=10**7):
    """Structure constants of T(p^i) T(p^j) as {double coset: multiplicity}.

    The multiplicity of a target class is the number of intermediate
    lattices M at index exponent i from the standard lattice such that a
    fixed representative of the class sits at exponent j from M.
    """
    ball(shape, i, budget)      # checks the budget, before any cache
    frames = _product_frames(shape, i)
    out: dict[LocalDoubleCoset, int] = {}
    # a product lattice can sit at any index exponent up to i + j
    targets = [dc for e in range(i + j + 1) for dc in enumerate_Tpj(shape, e)]
    for dc in targets:
        L0_rows, L0_k = representative_lattice(dc)
        mult = 0
        for fr in frames:
            try:
                got = _classify(fr, L0_rows, L0_k)
            except (NotElementary, NotIsometric):
                continue
            # equal ranks on both sides also keep the target shape
            if got.weight == j and got.r_minus == got.r_plus:
                mult += 1
        if mult:
            out[dc] = mult
    return out


@lru_cache(maxsize=32)
def _product_frames(shape: LocalShape, i: int) -> tuple[_Frame, ...]:
    """The frames of the lattices of the ball at index exponent i that have
    the shape's own shape, in the ball's order; the caller checks the
    budget."""
    p, gram = shape.p, shape.gram_rows()
    frames = []
    for entry in _ball_entries(shape, i).values():
        if entry.cls.weight != i:
            continue
        try:
            fr = _frame(p, gram, entry.rows, entry.k)
        except (NotElementary, NotIsometric):
            continue
        if fr.shape == shape:
            frames.append(fr)
    return tuple(frames)


# ---------------------------------------------------------------------------
# Global assembly.
# ---------------------------------------------------------------------------


def _shape_of_diag(T: Mat, p: int) -> tuple[int, int]:
    n = T.nrows
    a = sum(1 for i in range(n) if T[i, i] % p)
    return a, n - a


def global_representative(T: Mat, Tp: Mat, locals_: dict[int, LocalDoubleCoset]) -> Mat:
    """Integer block B of a global double-coset representative.

    T and Tp are square-free elementary-divisor diagonal matrices; Tp is the
    side whose standard lattice the local tuples classify against.  The
    result B has det a positive integer, satisfies the transpose
    integrality condition against (T, Tp), and matches each local monomial
    pattern modulo a high power of its prime.
    """
    n = T.nrows
    if Tp.nrows != n:
        raise IncompatibleLocals("sizes of T and T' differ")
    primes = {q for M in (T, Tp) for i in range(n) for q, _ in factor(M[i, i])}
    primes |= set(locals_)
    for p in sorted(primes):
        src = _shape_of_diag(Tp, p)
        tgt = _shape_of_diag(T, p)
        if p in locals_:
            dc = locals_[p]
            if dc.shape.p != p:
                raise IncompatibleLocals("local prime mismatch")
            if (dc.shape.a, dc.shape.b) != src:
                raise IncompatibleLocals(f"local shape at {p} does not match T'")
            if (dc.a_target, dc.b_target) != tgt:
                raise IncompatibleLocals(f"local target at {p} does not match T")
        elif src != tgt:
            raise IncompatibleLocals(f"missing local datum at {p} where T, T' differ")
    # the checks above leave equal shapes at every other prime: a class
    # with r_minus = r_plus = 0 keeps the shape
    work = {p: dc for p, dc in locals_.items() if dc.weight or dc.r_minus or dc.r_plus}
    if not work:
        return Mat.identity(n)

    m_total = 1
    for p, dc in work.items():
        m_total *= p ** dc.weight
    # the entry of row i in the local pattern at p is p**mu_i, in its column
    cols = {p: _columns(dc) for p, dc in work.items()}
    den = [1] * n
    for q, dc in work.items():
        for i in range(n):
            den[i] *= q ** dc.mu[i]
    targets = {}
    for p, dc in work.items():
        jp = dc.weight
        kp = 2 * (jp + max(dc.mu, default=0)) + 3
        mod = p ** kp
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            # local pattern scaled by m/p^j on row 0 to align determinants,
            # then by 1/den_i to land in SL_n(Z_p); both factors are p-units
            num_unit = (m_total // p**jp) if i == 0 else 1
            den_unit = den[i] // p ** dc.mu[i]
            rows[i][cols[p][i]] = num_unit * pow(den_unit, -1, mod) % mod
        detU = Mat(rows).det() % mod
        if detU == mod - 1:
            rows[0][cols[p][0]] = (-rows[0][cols[p][0]]) % mod
        elif detU != 1:
            raise IncompatibleLocals("local determinant alignment failed")
        targets[mod] = Mat(rows)
    A = sl_lift(targets, n)
    B = Mat.diagonal(den) @ A
    # fix the sign flips used for the determinant: flipping row 0 of a local
    # pattern is a unit operation inside the local group, so B is still a
    # representative; verify the integrality contract
    if not B.is_integral():
        raise IncompatibleLocals("lift failed to be integral")
    if not transpose_integrality(B, T, Tp):
        raise IncompatibleLocals("transpose integrality failed")
    return B
