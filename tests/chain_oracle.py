"""Slow reference paths for the chain-class and chain-theta code: the
per-subspace, per-vector and per-tuple loops that `quadlat` and `thetaser`
used before their whole-array forms.

* `act_mod` moves one reduced echelon basis by one generator with a Python
  `rref_mod`; the chain-class search now numbers the candidate subspaces and
  moves all of them at once.
* `in_lattice` reduces one vector against HNF rows pivot by pivot; the
  stabilizer search now tests all hits of a depth through a quotient map.
* `pair_coefficients` joins every vector of member 1 with every vector of
  member 2; the package joins one vector of each pair +-x of each member
  and sums over the signs.
* `tuple_coefficients` forms one tuple at a time, by recursion over the
  members' vectors, and computes each Gram entry by itself; the package
  has one join for every number of members, which counts the Grams of a
  block of tuples, over slices of the members' rows, at once.
* `NumpyBacktracker` is the isometry search that multiplies all candidates
  of a depth with the chosen images at every node and tests sublattice rows
  through the quotient map, and `numpy_aut_order_and_gens` runs it once per
  candidate image of each basis vector; the package keeps each depth's live
  candidates as a bitset, looks up the residue class, and runs one search
  per new point of an orbit of the generators found so far.
* `full_row_shell_counts` counts shells from the full rows of the chunked
  enumerator; the package counts one vector of each pair +-x from the
  enumeration leaves.
* `theta_coefficients_tuple` runs the package's join on any tuple of
  sublattices, chain or not, such as a permuted chain.
* `tuple_chain_classes` builds every candidate tuple of a chain, the
  product over the refinement steps, and partitions all of them at once
  under O(L1); the package climbs an orbit ladder, one rung per refinement
  prime, that lists only each representative's own candidates.

They serve only as differential oracles on small inputs.
"""

import numpy as np

from exact_oracle import rref_mod
from paramodular import thetaser
from paramodular.errors import (
    InvalidInvariant,
    InvalidLevel,
    NonSquareFreeLevel,
    NotIsometric,
    NotStabilizing,
    NotSupported,
    ScaleLimit,
)
from paramodular.exactmat import Mat, echelon_mod, factor, hnf_rows
from paramodular.quadlat import (
    ChainClass,
    ParamodularChain,
    QuadLattice,
    _join,
    _orbit_labels,
    _quotient_map,
    _row_index,
    aut_order,
    aut_order_and_gens,
    fincke_pohst_leaves,
    pmodular_coords,
    shell_vectors,
)


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


class NumpyBacktracker:
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

    Each of the sublattices (coordinate rows) must map into itself.  Its
    rows echelonized against the reversed coordinates are supported on
    prefixes, so each row's image is tested at the depth of its last one.
    """

    def __init__(self, gram_target: Mat, gram_source: Mat, budget: int = 10**7,
                 sublattices=()):
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
        # per depth, the sublattice rows decided there: the earlier depths
        # and their coefficients, the quotient map, the last term reduced
        self.checks = [[] for _ in range(n)]
        for S in sublattices:
            rows = [list(r)[::-1] for r in hnf_rows([list(r)[::-1] for r in S.rows])]
            V, mods = _quotient_map(S.rows, self._cmax * max((sum(map(abs, r)) for r in rows),
                                                            default=0))
            for r in rows:
                *before, d = [t for t in range(n) if r[t]]
                C = self.cands[gram_source[d, d] // 2]
                self.checks[d].append((before, np.array([r[t] for t in before], dtype=V.dtype),
                                       V, mods, r[d] * (C.astype(V.dtype) @ V) % mods))

    def passing(self, depth, hits, images):
        """Mask of the hits (candidates for e_depth) that pass the rows decided here."""
        ok = np.ones(len(hits), dtype=bool)
        for before, coeff, V, mods, last in self.checks[depth]:
            base = coeff @ images[before].astype(V.dtype) @ V % mods
            ok &= ~((last[hits] + base) % mods != 0).any(axis=1)
        return ok

    def extend(self, fixed):
        """Complete fixed images to a full isometry; None if impossible.

        fixed holds the images of e_0, e_1, ... in order, each a vector of
        its shell.  At each depth one mask drops the hits failing a sublattice
        row, so only passing candidates become nodes."""
        n = self.n
        gs = self._gs
        images = np.zeros((n, n), dtype=np.int64)   # row d: image of e_d
        rows = np.zeros((n, n), dtype=np.int64)     # row d: gram_target @ images[d]
        fixed = np.asarray(fixed, dtype=np.int64).reshape(-1, n)
        if len(fixed) and int(np.abs(fixed).max()) > self._cmax:
            raise NotSupported("fixed image outside the candidate shells")
        for depth, v in enumerate(fixed):
            if self.checks[depth]:
                k = np.flatnonzero((self.cands[self.Gs[depth, depth] // 2] == v).all(axis=1))
                if not len(k) or not self.passing(depth, k, images)[0]:
                    return None
            images[depth] = v
            rows[depth] = self._gt @ v

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
                hits = np.arange(len(C))
            if self.checks[depth]:
                hits = hits[self.passing(depth, hits, images)]
            cg = self._cg[norm]
            for k in hits:
                images[depth] = C[k]
                rows[depth] = cg[k]
                if rec(depth + 1):
                    return True
            return False

        if rec(len(fixed)):
            return Mat(images.T.tolist())
        return None


def numpy_aut_order_and_gens(L, sublattices=(), budget: int = 10**7):
    """Order and generators of the isometries preserving every sublattice,
    from `numpy_orbit_sizes`: the order is the product of the sizes."""
    sizes, gens = numpy_orbit_sizes(L, sublattices, budget)
    return int(np.prod(sizes, dtype=object)), gens


def numpy_orbit_sizes(L, sublattices=(), budget: int = 10**7):
    """Per depth d, the number of extendable images of e_d with e_0..e_{d-1}
    fixed, and every extension that moves e_d, by one search per candidate.

    Stabilizer chain over the standard basis, walked from the first basis
    vector to the last: the candidate images of e_d are those whose Gram
    row starts with the Gram entries (gram[j, d])_{j<d}; one comparison of
    the candidates' Gram rows selects them, in shell order.
    """
    n = L.rank
    bt = NumpyBacktracker(L.gram, L.gram, budget, sublattices)
    G = bt._gs
    eye = np.eye(n, dtype=np.int64)
    sizes = []
    gens = []
    for depth in range(n):
        norm = L.gram[depth, depth] // 2
        C = bt.cands[norm]
        hits = np.flatnonzero(
            (bt._cg[norm][:, :depth] == G[depth, :depth]).all(axis=1))
        count = 0
        fixed = eye[:depth + 1].copy()
        for k in hits:
            fixed[depth] = C[k]
            g = bt.extend(fixed)
            if g is not None:
                count += 1
                if not np.array_equal(C[k], eye[depth]):
                    gens.append(g)
        if count < 1:
            raise NotIsometric(f"the identity does not extend at depth {depth}")
        sizes.append(count)
    return sizes, gens


def full_row_shell_counts(L, bound: int, budget: int = 500 * 10**6) -> dict[int, int]:
    G = L.gram.to_numpy()
    counts = np.zeros(bound + 1, dtype=np.int64)
    for leaf in fincke_pohst_leaves(L.gram, bound, budget=budget):
        X = _join(*leaf)[:, ::-1]
        qv = ((X @ G) * X).sum(axis=1) // 2
        qv = qv[qv <= bound]
        counts += np.bincount(qv, minlength=bound + 1)
    return {q: int(counts[q]) for q in range(bound + 1) if counts[q]}


def theta_coefficients_tuple(L1, coords, bound: int,
                             budget: int = 200 * 10**6) -> dict[tuple, int]:
    """Tuple counts for an arbitrary tuple of sublattices of L1.

    Unlike chains, tuples need no containment or modularity; permuting a
    chain produces such a tuple and its keys are the conjugated originals.
    """
    return thetaser._join(L1, coords, bound, budget)[0]


def tuple_chain_classes(L1, T, budget: int = 10**7) -> list:
    """Isometry classes of chains with first member L1 and scale list T, from
    every candidate tuple at once: the product of the candidates over the
    refinement steps, each tuple keyed by the echelon bases mod p of its
    members for every prime p of every step, numbered by first appearance,
    permuted by the generators of O(L1), and each class's stabilizer computed
    again by aut_order on its representative."""
    T = tuple(T)
    if not T or T[0] != 1:
        raise InvalidLevel("the first scale must be 1")
    n = L1.rank
    distinct = [t for i, t in enumerate(T) if not i or t != T[i - 1]]
    primes = []     # the primes of each distinct scale after the first
    for prev, cur in zip(distinct, distinct[1:]):
        if cur % prev or cur // prev < 2:
            raise InvalidLevel("each scale must be a proper multiple of the last")
        f = factor(cur)
        if any(e > 1 for _, e in f):
            raise NonSquareFreeLevel("scales must be squarefree")
        primes.append([p for p, _ in f])
    # build candidate tuples of coordinate matrices for the distinct scales
    I = Mat.identity(n)
    partials = [(I,)]
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
                    Ks = pmodular_coords(ML, p, scale_now)
                    next_mats += Ks if M == I else [K @ M for K in Ks]
                mats = next_mats
                scale_now *= p
            newparts += [tup + (M,) for M in mats]
        partials = newparts
    order1, gens = aut_order_and_gens(L1, budget=budget)
    if len(distinct) == 1:
        # a chain of copies of L1 constrains nothing: its stabilizer is O(L1)
        return [ChainClass(ParamodularChain(L1, partials[0] * len(T), T), order1, 1)]
    if not partials:
        return []
    # key each candidate by the echelon bases of its images, a block of
    # columns per member and prime, and number the keys by first appearance
    slots = [(j, p) for j, ps in enumerate(primes, 1) for p in ps]
    bases = [echelon_mod(np.array([tup[j].rows for tup in partials], dtype=object), p)
             for j, p in slots]
    bases = [E[:, :int((E != 0).any(axis=2).sum(axis=1).max())] for E in bases]
    keys = np.concatenate([B.reshape(len(partials), -1) for B in bases], axis=1)
    first = np.sort(np.unique(keys, axis=0, return_index=True)[1])
    cands = [partials[i] for i in first]
    find = _row_index(keys[first])
    bases = [B[first] for B in bases]
    # perms[i][c]: the number of the image of candidate c under gens[i]
    perms = np.array([find(np.concatenate(
        [echelon_mod(B @ (g.to_numpy().T % p), p).reshape(len(cands), -1)
         for B, (_, p) in zip(bases, slots)], axis=1)) for g in gens])
    if (perms < 0).any():
        raise NotStabilizing("generator left the candidate set")
    label = _orbit_labels(perms.reshape(len(gens), len(cands)))
    reps = np.flatnonzero(label == np.arange(len(cands)))
    classes = []
    for r, size in zip(reps, np.bincount(label)[reps].tolist()):
        chain = ParamodularChain(L1, tuple(cands[r][distinct.index(t)] for t in T), T)
        stab = aut_order(chain, budget)
        if order1 != stab * size:
            raise InvalidInvariant("orbit-stabilizer identity failed")
        classes.append(ChainClass(chain, stab, size))
    classes.sort(key=lambda c: tuple(tuple(map(tuple, M.rows))
                                     for M in c.representative.coords))
    return classes
