"""Differential tests of the whole-array chain code against the slow
reference paths in chain_oracle.py: candidate numbering and generator
images, Hermite forms written from echelon bases, the stabilizer's
sublattice test, the sign-halved pair join, the bitset isometry search and
the shell counts from half-enumeration leaves."""

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
    pair_coefficients,
    theta_coefficients_tuple,
    tuple_coefficients,
)
from exact_oracle import rref_mod
from paramodular.errors import IntegralityViolation, InvalidInvariant, NotEven
from paramodular.exactmat import Mat, echelon_mod, hnf_rows
from paramodular.quadlat import (
    QuadLattice,
    _Backtracker,
    _echelon_preimages,
    _max_singular_subspaces,
    _quotient_map,
    _row_index,
    aut_order_and_gens,
    pmodular_coords,
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
    # generator of O(E8) against the one-subspace oracle on 12 candidates,
    # so that every candidate is checked, and the first 25 generators (the
    # ones the class search starts with) as permutations of all candidates
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
    rng = random.Random(p)
    for gi, g in enumerate(e8_gens):
        if gi < 25:
            ids = find(echelon_mod(E @ g.to_numpy().T, p).reshape(N, -1))
            assert sorted(ids.tolist()) == list(range(N))
        cs = sorted({(12 * gi + j) % N for j in range(6)} | set(rng.sample(range(N), 6)))
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
    assert aut_order_and_gens(L, sublattices) == numpy_aut_order_and_gens(L, sublattices)


def test_bitset_search_pins_match_numpy_search(e8):
    # the E8 searches of the node pins, node for node and generator for
    # generator; 240 candidates fill several mask blocks, and a block of 7
    # (as a shell of over 1024 vectors gets) leaves a partial one at the end
    for sublattices in ([], [Mat(E8_TWO_MODULAR)]):
        want = numpy_aut_order_and_gens(e8, sublattices)
        assert aut_order_and_gens(e8, sublattices) == want
        for block in (64, 7):
            a = NumpyBacktracker(e8.gram, e8.gram, 10**6, sublattices)
            b = _Backtracker(e8.gram, e8.gram, 10**6, sublattices)
            b._block = block
            for g in want[1][::37]:
                fixed = np.array(g.rows).T[:3]
                assert b.extend(fixed) == a.extend(fixed)
                assert b.nodes == a.nodes


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), bound=st.integers(0, 8))
def test_leaf_shell_counts_match_exact_and_full_rows(data, n, bound):
    L = QuadLattice(_even_gram(data, n))
    got = shell_counts(L, bound)
    assert got == {q: len(v) for q, v in sorted(short_vectors_exact(L, bound).items())}
    assert got == full_row_shell_counts(L, bound)

