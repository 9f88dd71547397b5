"""Differential tests of the whole-array chain code against the slow
reference paths in chain_oracle.py: candidate numbering and generator
images, the orbit ladder of chain classes, Hermite forms written from
echelon bases, the stabilizer's sublattice test, the sign-halved pair join,
the bitset isometry search and the shell counts from half-enumeration
leaves."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paramodular.quadlat as quadlat
import paramodular.thetaser as thetaser
from chain_oracle import (
    NumpyBacktracker,
    act_mod,
    full_row_shell_counts,
    in_lattice,
    numpy_aut_order_and_gens,
    numpy_orbit_sizes,
    pair_coefficients,
    theta_coefficients_tuple,
    tuple_chain_classes,
    tuple_coefficients,
)
from exact_oracle import rref_mod
from paramodular.errors import IntegralityViolation, InvalidInvariant, NotEven
from paramodular.exactmat import Mat, echelon_mod, hnf_rows, rational_inverse
from paramodular.quadlat import (
    QuadLattice,
    _Backtracker,
    _echelon_preimages,
    _max_singular_subspaces,
    _orbit_labels,
    _quotient_map,
    _row_index,
    aut_order_and_gens,
    enumerate_chain_classes,
    pmodular_coords,
    search_basis,
    shell_counts,
    shell_vectors,
    short_vectors_exact,
)
from paramodular.thetaser import _join, theta_coefficients
from test_quadlat import E8_TWO_MODULAR, SUBSPACE_INPUTS, SUBSPACE_PINS


@pytest.fixture(scope="module")
def e8_gens(e8):
    return aut_order_and_gens(e8)[1]


@pytest.mark.parametrize("p", [2, 3])
def test_candidate_images_match_act_mod(e8, e8_gens, p):
    # the numbering and the batched images of enumerate_chain_classes: every
    # generator of O(E8) as a permutation of all candidates, and against the
    # one-subspace oracle on every len(gens)-th candidate, so that every
    # candidate is checked
    Ks = pmodular_coords(e8, p)
    N = len(Ks)
    subspaces = [tuple(map(tuple, rref_mod(K.rows, p))) for K in Ks]
    number = {S: i for i, S in enumerate(subspaces)}
    E = echelon_mod(np.array([K.rows for K in Ks]), p)
    assert not E[:, 4:].any()
    assert E[:, :4].tolist() == [[list(r) for r in S] for S in subspaces]
    E = E[:, :4]
    find = _row_index(E.reshape(N, -1))
    assert find(E.reshape(N, -1)).tolist() == list(range(N))
    for gi, g in enumerate(e8_gens):
        ids = find(echelon_mod(E @ g.to_numpy().T, p).reshape(N, -1))
        assert sorted(ids.tolist()) == list(range(N))
        cs = list(range(gi, N, len(e8_gens)))
        ids = find(echelon_mod(E[cs] @ g.to_numpy().T, p).reshape(len(cs), -1))
        gp = [[x % p for x in col] for col in zip(*g.rows)]
        assert ids.tolist() == [number[act_mod(subspaces[c], gp, p)] for c in cs]


def test_row_index_absent_rows():
    table = np.array([[0, 1, 2], [2, 1, 0], [1, 1, 1]])
    find = _row_index(table)
    assert find(np.array([[1, 1, 1], [0, 0, 0], [0, 1, 2], [2, 1, 1]])).tolist() == [2, -1, 0, -1]


def _preimage_hnfs(bases, p, n):
    return sorted(hnf_rows([list(v) for v in basis]
                           + [[p * (t == i) for t in range(n)] for i in range(n)])
                  for basis in bases)


@pytest.mark.parametrize("p", [2, 3])
def test_echelon_hermite_forms_e8(e8, p):
    bases = _max_singular_subspaces(e8, p, 1, 10**6)
    assert len(bases) == {2: 270, 3: 2240}[p]
    assert [list(map(list, K.rows)) for K in pmodular_coords(e8, p)] == \
        _preimage_hnfs(bases, p, 8)


@pytest.mark.parametrize("name,p", sorted(k for k, (count, _) in SUBSPACE_PINS.items() if count))
def test_echelon_hermite_forms_pinned_inputs(name, p):
    # these lattices are not all unimodular, so the preimages are compared
    # without the modularity check of pmodular_coords
    gram, scale = SUBSPACE_INPUTS[name]
    n = len(gram)
    bases = _max_singular_subspaces(QuadLattice(Mat(gram)), p, scale, 10**6)
    got = _echelon_preimages(np.array(bases, dtype=np.int64).reshape(len(bases), -1, n), p)
    assert sorted(got.tolist()) == _preimage_hnfs(bases, p, n)


def test_modularity_check_raises(e8, monkeypatch):
    # the cheap check still rejects what the search should never return:
    # e0 + e1 and e0 + e3 are singular mod 2 but not orthogonal, e0 is not
    # singular, and the line of e0 + e1 is totally singular but not maximal
    e = [[int(i == j) for j in range(8)] for i in range(8)]
    add = lambda a, b: [x + y for x, y in zip(a, b)]
    cases = [(IntegralityViolation, [add(e[0], e[1]), add(e[0], e[3])]),
             (NotEven, [e[0]]),
             (InvalidInvariant, [add(e[0], e[1])])]
    for error, rows in cases:
        basis = tuple(map(tuple, rref_mod(rows, 2)))
        monkeypatch.setattr(quadlat, "_max_singular_subspaces", lambda *a, b=basis: [b])
        with pytest.raises(error):
            pmodular_coords(e8, 2)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), m=st.integers(1, 5), big=st.booleans())
def test_quotient_map_matches_pivot_walk(data, n, m, big):
    rows = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                              min_size=m, max_size=m))
    hnf = hnf_rows(rows)
    X = []
    for _ in range(8):
        x = [sum(c * r[t] for c, r in zip(data.draw(st.lists(st.integers(-3, 3), min_size=m,
                                                             max_size=m)), rows))
             for t in range(n)]
        if data.draw(st.booleans()):
            x[data.draw(st.integers(0, n - 1))] += data.draw(st.integers(-2, 2))
        X.append(x)
    vmax = 2**70 if big else max(abs(x) for v in X for x in v)
    V, mods = _quotient_map(rows, vmax)
    assert V.dtype == (object if big and V.size else np.int64)
    mask = ~((np.array(X, dtype=V.dtype) @ V) % mods != 0).any(axis=1)
    assert mask.tolist() == [in_lattice(x, hnf) for x in X]


def _even_gram(data, n):
    # 2 B B^T plus a diagonally dominant part with odd off-diagonal entries
    B = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    S = data.draw(st.lists(st.integers(-1, 1), min_size=n * n, max_size=n * n))
    return Mat([[2 * sum(B[i][k] * B[j][k] for k in range(n))
                 + (2 * n if i == j else S[min(i, j) * n + max(i, j)])
                 for j in range(n)] for i in range(n)])


def _sublattice(data, n):
    # a Hermite-form basis, as every sublattice of full rank has
    return Mat([[data.draw(st.integers(1, 3)) if j == i else
                 data.draw(st.integers(-2, 2)) if j > i else 0
                 for j in range(n)] for i in range(n)])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), bound=st.integers(0, 5))
def test_halved_pair_join_matches_full_join(data, n, bound):
    L1 = QuadLattice(_even_gram(data, n))
    coords = [_sublattice(data, n), _sublattice(data, n)]
    grams = [C @ L1.gram @ C.transpose() for C in coords]
    G1, mats = L1.gram.to_numpy(), [C.to_numpy() for C in coords]
    want = pair_coefficients(grams, G1, mats, bound)
    got, shells = _join(L1, coords, bound, 200 * 10**6)
    assert list(got.items()) == list(want.items())
    assert shells == [shell_counts(QuadLattice(g), bound) for g in grams]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), members=st.integers(2, 4), bound=st.integers(0, 4))
def test_tuple_join_matches_reference(data, n, members, bound):
    # A_n and its bases have many short vectors, so that tuples with every
    # b_ij nonzero occur
    A = Mat([[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)])
    U = _basis_change(data, n)
    L1 = QuadLattice(U.transpose() @ A @ U if data.draw(st.booleans()) else _even_gram(data, n))
    coords = [_basis_change(data, n) if data.draw(st.booleans()) else _sublattice(data, n)
              for _ in range(members)]
    grams = [C @ L1.gram @ C.transpose() for C in coords]
    want = tuple_coefficients(grams, L1.gram.to_numpy(), [C.to_numpy() for C in coords], bound)
    # the join orders the keys of a q-tuple by their off-diagonal entries,
    # the recursion by first appearance, so the counts are compared as maps
    assert theta_coefficients_tuple(L1, coords, bound) == want


@pytest.mark.parametrize("members, bound", [(3, 4), (4, 4)])
def test_tuple_join_matches_reference_on_a2(members, bound):
    # three bases of A2 and a sublattice of index 2, all with vectors at
    # Q = 1, so that the keys use every digit of the radix
    A2 = QuadLattice(Mat([[2, -1], [-1, 2]]))
    coords = [Mat([[1, 0], [0, 1]]), Mat([[1, 1], [0, 1]]), Mat([[2, 0], [0, 1]]),
              Mat([[1, 0], [-1, 1]])][:members]
    grams = [C @ A2.gram @ C.transpose() for C in coords]
    want = tuple_coefficients(grams, A2.gram.to_numpy(), [C.to_numpy() for C in coords], bound)
    assert theta_coefficients_tuple(A2, coords, bound) == want


@pytest.mark.parametrize("scales, bound", [((1, 2, 3), 10), ((1, 2, 2, 4), 9)])
def test_tuple_join_with_zero_members_matches_reference(scales, bound):
    # nested multiples of A2, with minima 1, 4, 9 or 1, 4, 4, 16: most
    # q-tuples have zero members, each member's rows stop at the bound less
    # the least minimum of the others, and the fourth member of (1, 2, 2, 4)
    # has no nonzero vector in range
    A2 = QuadLattice(Mat([[2, -1], [-1, 2]]))
    coords = [Mat.identity(2).scale(t) for t in scales]
    grams = [C @ A2.gram @ C.transpose() for C in coords]
    want = tuple_coefficients(grams, A2.gram.to_numpy(), [C.to_numpy() for C in coords], bound)
    assert theta_coefficients_tuple(A2, coords, bound) == want


def _block_dtypes(monkeypatch, force=None):
    # the block dtype of every _signed_counts call, in a list that fills as
    # the join runs; with force, that dtype replaces the one of the bound
    seen = []
    pick = thetaser._block_dtype

    def spy(*args):
        seen.append(force or pick(*args))
        return seen[-1]
    monkeypatch.setattr(thetaser, "_block_dtype", spy)
    return seen


def _wide_skew(gram, rng, lo):
    # gram in a unimodular basis, one elementary row operation at a time,
    # until an entry reaches lo
    n = gram.nrows
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        G = Mat(U) @ gram @ Mat(U).transpose()
        if max(abs(x) for row in G.rows for x in row) >= lo:
            return G


@pytest.mark.parametrize("force", [None, np.int64])
def test_pair_join_on_both_block_dtypes(e8_chain, monkeypatch, force):
    # the E8 (1, 2) join's products stay below 2^24, so its blocks run in
    # float32; forced to int64 they give the same counts in the same order
    seen = _block_dtypes(monkeypatch, force)
    got = theta_coefficients(e8_chain, 4).coefficients
    assert seen and set(seen) == {force or np.float32}
    G1, mats = e8_chain.L1.gram.to_numpy(), [C.to_numpy() for C in e8_chain.coords]
    grams = [e8_chain.member_gram(j) for j in range(2)]
    assert list(got.items()) == list(pair_coefficients(grams, G1, mats, 4).items())


@pytest.mark.parametrize("name, base, bound", [
    ("A2", [[2, -1], [-1, 2]], 4),
    ("D4", [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], 3)])
def test_tuple_join_crosses_to_int64(monkeypatch, name, base, bound):
    # three copies of a skew with an entry of 10^3 or more: with three
    # nonzero members, the bound on the pairing of members 1 and 2, at its
    # place in the radix, reaches 2^24, so those q-tuples run in int64 and
    # the others in float32
    G = _wide_skew(Mat(base), random.Random(name), 10**3)
    L1 = QuadLattice(G)
    coords = [Mat.identity(L1.rank)] * 3
    seen = _block_dtypes(monkeypatch)
    got = theta_coefficients_tuple(L1, coords, bound)
    assert set(seen) == {np.float32, np.int64}
    want = tuple_coefficients([G] * 3, G.to_numpy(), [C.to_numpy() for C in coords], bound)
    assert got == want


def test_a_member_without_rows(e8_chain, monkeypatch):
    # at trace bound 1, member 2 (minimum 2) leaves member 1 no room: member
    # 1's rows are enumerated up to 1 - 2 = -1, none at all, and member 2's
    # up to 1 - 1 = 0, its zero vector; the counts are still the full
    # join's, in order
    seen = []

    def rows(gram, bound, *rest, **kw):
        out = shell_vectors(gram, bound, *rest, **kw)
        seen.append((bound, {q: len(X) for q, X in out.items()}))
        return out

    monkeypatch.setattr(thetaser, "shell_vectors", rows)
    got = theta_coefficients(e8_chain, 1).coefficients
    assert seen == [(-1, {}), (0, {0: 1})]
    G1, mats = e8_chain.L1.gram.to_numpy(), [C.to_numpy() for C in e8_chain.coords]
    grams = [e8_chain.member_gram(j) for j in range(2)]
    assert list(got.items()) == list(pair_coefficients(grams, G1, mats, 1).items())


def test_chain_coefficients_sum_to_shell_products(e8_chain):
    # summed over the off-diagonal entry b, the pair counts at (q1, q2) are
    # the products of the members' shell counts, for every q1 + q2 <= bound
    exp_ = theta_coefficients(e8_chain, 4)
    marginals = {}
    for H, c in exp_.coefficients.items():
        q = (H[0][0] // 2, H[1][1] // 2)
        marginals[q] = marginals.get(q, 0) + c
    s1, s2 = exp_.shells
    assert marginals == {(q1, q2): s1[q1] * s2[q2] for q1 in s1 for q2 in s2 if q1 + q2 <= 4}
    G1, mats = e8_chain.L1.gram.to_numpy(), [C.to_numpy() for C in e8_chain.coords]
    grams = [e8_chain.member_gram(j) for j in range(2)]
    assert exp_.coefficients == pair_coefficients(grams, G1, mats, 4)


def _basis_change(data, n):
    # a unimodular matrix: the identity with a few rows added to others
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(data.draw(st.integers(0, 2)) if n > 1 else 0):
        i, j = data.draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        c = data.draw(st.sampled_from([-1, 1]))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return Mat(U)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), subs=st.integers(0, 2))
def test_bitset_search_matches_numpy_search(data, n, subs):
    # the same map or None and the same node count as the search that
    # multiplies all candidates at every node, from random fixed prefixes
    target = _even_gram(data, n)
    U = _basis_change(data, n)
    source = U.transpose() @ target @ U if data.draw(st.booleans()) else target
    sublattices = [_sublattice(data, n) for _ in range(subs)]
    want = NumpyBacktracker(target, source, 10**6, sublattices)
    got = _Backtracker(target, source, 10**6, sublattices)
    assert {q: C.tolist() for q, C in got.cands.items()} == \
        {q: C.tolist() for q, C in want.cands.items()}
    fixed = []
    for d in range(data.draw(st.integers(0, n))):
        C = want.cands[source[d, d] // 2]
        if not len(C):
            break
        fixed.append(C[data.draw(st.integers(0, len(C) - 1))].tolist())
    assert got.extend(fixed) == want.extend(fixed)
    assert got.nodes == want.nodes
    L = QuadLattice(target)
    order, gens = aut_order_and_gens(L, sublattices)
    want_order = numpy_aut_order_and_gens(L, sublattices)[0]
    assert order == want_order
    _assert_stabilizers(L, sublattices, gens)
    assert _group_order(gens, n) == want_order


def test_bitset_search_pins_match_numpy_search(e8):
    # the E8 searches of the node pins: the same orders and generators that
    # stabilize; then extension by extension, node for node, from the
    # exhaustive search's generators; 240 candidates fill several mask
    # blocks, and a block of 7 (as a shell of over 1024 vectors gets) leaves
    # a partial one at the end
    for sublattices in ([], [Mat(E8_TWO_MODULAR)]):
        want = numpy_aut_order_and_gens(e8, sublattices)
        order, gens = aut_order_and_gens(e8, sublattices)
        assert order == want[0]
        _assert_stabilizers(e8, sublattices, gens)
        for block in (64, 7):
            a = NumpyBacktracker(e8.gram, e8.gram, 10**6, sublattices)
            b = _Backtracker(e8.gram, e8.gram, 10**6, sublattices)
            b._block = block
            for g in want[1][::37]:
                fixed = np.array(g.rows).T[:3]
                assert b.extend(fixed) == a.extend(fixed)
                assert b.nodes == a.nodes


def _assert_stabilizers(L, sublattices, gens):
    # every generator is an isometry that maps each sublattice (coordinate
    # rows S, whose images are the rows of S g^T) into itself
    for g in gens:
        assert g.transpose() @ L.gram @ g == L.gram
        for S in sublattices:
            assert (S @ g.transpose() @ rational_inverse(S)).is_integral()


def _orbit_size(start, mats):
    # the size of the orbit of the int64 array start under the group that
    # the integer matrices mats generate, acting by left multiplication
    seen, frontier = {start.tobytes()}, [start]
    while frontier:
        new = {y.tobytes(): y for x in frontier for y in (m @ x for m in mats)}
        frontier = [y for key, y in new.items() if key not in seen]
        seen.update(new)
    return len(seen)


def _group_order(gens, n):
    # the order of the finite group that gens generate: the identity's orbit
    return _orbit_size(np.eye(n, dtype=np.int64), [g.to_numpy() for g in gens])


def _orbit_sizes(gens, n):
    # per depth d, the orbit of e_d under the generators fixing e_0..e_{d-1}
    eye = np.eye(n, dtype=np.int64)
    return [_orbit_size(eye[d], [g.to_numpy() for g in gens
                                 if (g.to_numpy()[:, :d] == eye[:, :d]).all()])
            for d in range(n)]


def _candidate_orbits(e8, p, gens):
    # the least candidate of each p-modular sublattice's orbit under gens, as
    # enumerate_chain_classes numbers and moves them
    Ks = pmodular_coords(e8, p)
    E = echelon_mod(np.array([K.rows for K in Ks]), p)[:, :4]
    find = _row_index(E.reshape(len(Ks), -1))
    perms = [find(echelon_mod(E @ (g.to_numpy().T % p), p).reshape(len(Ks), -1))
             for g in gens]
    return _orbit_labels(np.array(perms))


def _failed_extensions(monkeypatch, cls):
    # the number of extensions of the search class cls that fail
    failed = [0]
    extend = cls.extend

    def counted(self, fixed):
        g = extend(self, fixed)
        failed[0] += g is None
        return g

    monkeypatch.setattr(cls, "extend", counted)
    return failed


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), subs=st.integers(0, 2))
def test_orbit_pruning_matches_exhaustive_search(data, n, subs):
    # per depth, the orbit of e_d under the generators that fix e_0..e_{d-1}
    # is the exhaustive search's count of extendable images, and the order
    # is their product; with sublattices, hits with the right inner products
    # often fail to extend, and their orbits are marked failed
    L = QuadLattice(_even_gram(data, n))
    sublattices = [_sublattice(data, n) for _ in range(subs)]
    order, gens = aut_order_and_gens(L, sublattices)
    L, gens, sublattices = _on_search_basis(L, gens, sublattices)
    sizes = numpy_orbit_sizes(L, sublattices)[0]
    assert _orbit_sizes(gens, n) == sizes
    assert order == math.prod(sizes)


def _on_search_basis(L, gens, sublattices=()):
    # the stabilizer chain runs over the search basis: the lattice, the
    # generators and the sublattice rows in its coordinates
    U, R = search_basis(L.gram)
    if U is None:
        return L, gens, list(sublattices)
    Ut, Ui = U.transpose(), U.inverse()
    return QuadLattice(R), [Ut.inverse() @ g @ Ut for g in gens], [S @ Ui for S in sublattices]


# |O(L)| of the root lattices, from perfbench/oracles.py
ROOT_AUT_ORDERS = {
    "A1": ([[2]], 2),
    "A1A1": ([[2, 0], [0, 2]], 8),
    "A2": ([[2, -1], [-1, 2]], 12),
    "A1A1A1": ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 48),
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 48),
    "A1A2": ([[2, 0, 0], [0, 2, -1], [0, -1, 2]], 24),
    "A1^4": ([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]], 384),
    "D4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], 1152),
}


def _skew(gram, rng):
    # U G U^T for three random elementary row operations with multipliers
    # +-1, +-2, drawn again until it differs from G and no entry exceeds 24,
    # as the isometry and automorphism rows of the skewed-bases benchmark
    n = len(gram)
    while True:
        U = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            U[i] = [x + c * y for x, y in zip(U[i], U[j])]
        G = Mat(U) @ Mat(gram) @ Mat(U).transpose()
        if G != Mat(gram) and max(abs(x) for r in G.rows for x in r) <= 24:
            return G


@pytest.mark.parametrize("name", [*ROOT_AUT_ORDERS, *(
    f"{nm}-skew-{i}" for nm in ("A2", "A3", "A1A2", "A1^4", "D4") for i in range(4))])
def test_orbit_pruning_on_root_lattices_and_their_skews(name):
    # the eight root lattices, and 20 seeded skews of five of them
    nm, _, i = name.partition("-skew-")
    gram, want = ROOT_AUT_ORDERS[nm]
    L = QuadLattice(_skew(gram, random.Random(f"{nm}/{i}")) if i else Mat(gram))
    order, gens = aut_order_and_gens(L)
    assert order == want
    assert _group_order(gens, L.rank) == want
    L, gens, _ = _on_search_basis(L, gens)
    assert _orbit_sizes(gens, L.rank) == numpy_orbit_sizes(L)[0]


@pytest.mark.parametrize("sublattices, want", [([], 696729600), ([E8_TWO_MODULAR], 2580480)])
def test_orbit_pruning_on_e8(e8, sublattices, want):
    # O(E8) and the stabilizer of its (1, 2) chain: the orbit sizes of the
    # generators multiply to the order
    order, gens = aut_order_and_gens(e8, [Mat(S) for S in sublattices])
    assert order == want
    assert math.prod(_orbit_sizes(gens, 8)) == want


def test_failed_orbits_are_not_searched(monkeypatch):
    # A3 with the sublattice of rows (3, -2, 0), (0, 1, 2), (0, 0, 3): nine
    # hits fail to extend in the exhaustive search, but only four are tried,
    # as the others lie in the orbit of a failed one
    L = QuadLattice(Mat([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]))
    S = [Mat([[3, -2, 0], [0, 1, 2], [0, 0, 3]])]
    failed = _failed_extensions(monkeypatch, _Backtracker)
    want = _failed_extensions(monkeypatch, NumpyBacktracker)
    assert aut_order_and_gens(L, S)[0] == 6
    assert numpy_orbit_sizes(L, S)[0] == [6, 1, 1]
    assert (failed[0], want[0]) == (4, 9)


@pytest.mark.parametrize("p, count", [(2, 270), (3, 2240)])
def test_generators_move_candidates_as_the_exhaustive_search(e8, e8_gens, p, count):
    # the p-modular sublattices of E8, numbered and moved as in
    # enumerate_chain_classes, fall into the same orbits under the generators
    # as under the exhaustive search's 410
    want = numpy_aut_order_and_gens(e8)[1]
    assert len(want) == 410
    label = _candidate_orbits(e8, p, e8_gens)
    assert len(label) == count
    assert label.tolist() == _candidate_orbits(e8, p, want).tolist()


@pytest.mark.parametrize("skew, T", [
    *((None, T) for T in [(1,), (1, 1), (1, 2), (1, 2, 2), (1, 3)]),
    ("E8/1", (1, 2)), ("E8/1", (1, 3))], ids=str)
def test_orbit_ladder_matches_tuple_product(e8, skew, T):
    # the ladder's classes, representatives, stabilizers and orbits against
    # the partition of every candidate tuple; the skew E8/1 has entries at
    # most 6, while the stabilizer searches on E8/0 and E8/2 take seconds
    L = QuadLattice(_skew(e8.gram.rows, random.Random(skew))) if skew else e8
    assert enumerate_chain_classes(L, T) == tuple_chain_classes(L, T)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), bound=st.integers(0, 8))
def test_leaf_shell_counts_match_exact_and_full_rows(data, n, bound):
    L = QuadLattice(_even_gram(data, n))
    got = shell_counts(L, bound)
    assert got == {q: len(v) for q, v in sorted(short_vectors_exact(L, bound).items())}
    assert got == full_row_shell_counts(L, bound)

