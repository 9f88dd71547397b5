"""Answers that do not depend on the basis a lattice is given in.

Enumerations run on the enumeration basis of a Gram: the Gram itself when
it passes the orthogonality defect and spread tests, else its exact LLL
reduction; isometry searches run on the LLL reduction as well when it
shortens the longest basis vector.  The property test skews root lattices and E8 by random
unimodular matrices with large entries, where the float enumerator on the
given basis misses vectors or does not return; the examples are skews on
which it does."""

import time
import tracemalloc
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_oracle import theta_coefficients_tuple, tuple_coefficients
from paramodular import quadlat
from paramodular.errors import NotSupported
from paramodular.exactmat import Mat, rational_inverse
from paramodular.quadlat import (
    QuadLattice,
    aut_order,
    e8_lattice,
    enumeration_basis,
    isometry_test,
    pmodular_coords,
    search_basis,
    shell_counts,
    shell_vectors,
    short_vectors,
)
from paramodular.thetaser import theta1_value
from test_chain_arrays import ROOT_AUT_ORDERS
from test_quadlat import E8_TWO_MODULAR

E8 = [list(r) for r in e8_lattice().gram.rows]
# base Gram, bound of the compared shell counts, |O(L)|
BASES = {**{nm: (g, 3, order) for nm, (g, order) in ROOT_AUT_ORDERS.items()},
         "E8": (E8, 2, 696729600)}

# the float enumerator on these bases as given: {0: 1} at bound 2 ...
FAULT_GRAM = [[6661984, -233340260, -193191218],
              [-233340260, 8172892180, 6766646248],
              [-193191218, 6766646248, 5602362106]]
# ... {0: 1, 1: 4} at bound 1, a basis of Z^3 with doubled Gram 2I ...
Z3_SKEW = [[185314, 122774, 178174], [122774, 81382, 118084], [178174, 118084, 171348]]
# ... and {0: 1, 1: 6, 3: 6, 4: 2} at bound 4, a basis of A2
A2_SKEW = [[414762, 175029], [175029, 73862]]


@st.composite
def unimodular(draw, n):
    """A signed permutation matrix times up to 12 elementary row operations
    with multipliers up to 300."""
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    U = [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-300, 300))
    for i, j, c in draw(st.lists(ops, max_size=12)):
        if i != j:
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return Mat(U)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(BASES)))
def test_answers_do_not_depend_on_the_basis(data, name):
    gram, bound, order = BASES[name]
    L = QuadLattice(Mat(gram))
    U = data.draw(unimodular(L.rank))
    K = QuadLattice(U @ L.gram @ U.transpose())
    assert shell_counts(K, bound) == shell_counts(L, bound)
    for z in (complex(0.1, 0.7), complex(-0.3, 1.1)):
        assert abs(theta1_value(K, z) - theta1_value(L, z)) <= 1e-12
    assert aut_order(K) == order
    g = isometry_test(L, K)
    assert g is not None and g.transpose() @ K.gram @ g == L.gram
    assert (K.disc(), K.level()) == (L.disc(), L.level())


def _sheared_e8(i, j, c):
    U = [[int(a == b) for b in range(8)] for a in range(8)]
    U[i][j] = c
    return QuadLattice(Mat(U) @ Mat(E8) @ Mat(U).transpose())


def test_fault_gram_reduces_to_a_diagonal_form():
    L = QuadLattice(Mat(FAULT_GRAM))
    U, R, _ = enumeration_basis(L.gram)
    assert R == Mat.diagonal([4, 6, 6])
    assert U @ L.gram @ U.transpose() == R
    assert shell_counts(L, 2) == {0: 1, 2: 2}
    vectors = short_vectors(L, 2)
    assert vectors[0] == [(0, 0, 0)] and sorted(vectors[2]) == [(-1366, -39, 0), (1366, 39, 0)]
    assert len(vectors) == 2


def test_smallest_wrong_basis_of_z3():
    L = QuadLattice(Mat(Z3_SKEW))
    assert shell_counts(L, 1) == {0: 1, 1: 6}
    assert aut_order(L) == 48


def test_sheared_e8_has_its_240_roots():
    L = _sheared_e8(7, 6, 10**5)
    assert shell_counts(L, 1) == {0: 1, 1: 240}
    roots = short_vectors(L, 1)[1]
    assert len(set(roots)) == 240 and all(L.q(v) == 1 for v in roots)


def test_large_shear_of_e8_in_bounded_time_and_memory():
    # 19.9 s and a 158 MB peak on the given basis
    L = _sheared_e8(0, 7, 10**6)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        counts = shell_counts(L, 1)
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == {0: 1, 1: 240}
    assert seconds < 0.5 and peak < 100 * 2**20


def test_a2_skew_shells_and_three_member_join():
    L = QuadLattice(Mat(A2_SKEW))
    assert shell_counts(L, 4) == {0: 1, 1: 6, 3: 6, 4: 6}
    coords = [Mat.identity(2)] * 3
    grams = [L.gram] * 3
    want = tuple_coefficients(grams, L.gram.to_numpy(), [C.to_numpy() for C in coords], 4)
    assert theta_coefficients_tuple(L, coords, 4) == want
    # the keys are the Grams of the tuples, so the Cartan basis gives them too
    a2 = QuadLattice(Mat([[2, -1], [-1, 2]]))
    assert theta_coefficients_tuple(a2, coords, 4) == want


def _defect(gram: Mat):
    """prod_i gram_ii / det gram, which the enumeration basis keeps below
    2^(n(n-1)/2)."""
    return prod(gram[i, i] for i in range(gram.nrows)) / QuadLattice(gram).disc()


def test_pinned_bases_keep_their_own_basis(e8):
    # every basis that a pinned digest, node count or golden depends on
    # passes the defect test, so it is enumerated as given; a change to the
    # test that moved one of them fails here by name
    K = Mat(E8_TWO_MODULAR)
    grams = {"E8": e8.gram, "E8-K": K @ e8.gram @ K.transpose(),
             "E8-inverse": rational_inverse(e8.gram)}
    for nm, (g, _) in ROOT_AUT_ORDERS.items():
        L = QuadLattice(Mat(g))
        dual, N = L.dual_and_level()
        grams |= {nm: L.gram, f"{nm}-dual": dual.scale(N)}
    for p in (2, 3):
        for i, C in enumerate(pmodular_coords(e8, p)):
            grams[f"E8-{p}-modular-{i}"] = C @ e8.gram @ C.transpose()
    assert len(grams) == 3 + 16 + 270 + 2240
    for name, gram in grams.items():
        U, R, _ = enumeration_basis(gram)
        assert U is None and R == gram, name
    assert (_defect(grams["E8"]), _defect(grams["E8-K"])) == (256, 4096)
    assert _defect(grams["E8-inverse"]) == 38707200 < 2**28
    assert max(_defect(grams[f"{nm}{s}"]) for nm in ROOT_AUT_ORDERS for s in ("", "-dual")) <= 8
    assert max(map(_spread, grams.values())) == _spread(grams["E8-inverse"]) == 15


def _spread(gram: Mat):
    """max_i gram_ii / min_i gram_ii, which the enumeration basis keeps
    below 2^(n-1)."""
    diag = [gram[i, i] for i in range(gram.nrows)]
    return max(diag) / min(diag)


def test_skews_past_either_bound_are_reduced():
    # the fault Gram's defect is about 2.1e24, and E8 sheared by 10^5 is
    # past 2^28; E8 sheared by 183 is not, but one basis vector is 33,490
    # times as long as the others; a shear by 10 is kept
    assert _defect(Mat(FAULT_GRAM)) > 2e24
    assert _defect(_sheared_e8(7, 6, 10**5).gram) > 2**28
    long_vector = _sheared_e8(0, 5, 183).gram
    assert _defect(long_vector) < 2**28 and _spread(long_vector) > 2**7
    for L, reduced in ((QuadLattice(Mat(FAULT_GRAM)), True), (_sheared_e8(7, 6, 10**5), True),
                       (_sheared_e8(0, 5, 183), True), (_sheared_e8(7, 6, 10), False)):
        U, R, _ = enumeration_basis(L.gram)
        assert (U is not None) == reduced
        assert _defect(R) <= 2**28 and _spread(R) <= 2**7


def test_long_vector_among_short_ones():
    # E8 with b_0 = e_0 + 183 e_5 passes the defect test; on that basis the
    # enumeration to the bound that theta1_value needs at Im z = 0.7 went
    # over its budget of 5 * 10^8 candidates, and the automorphism search
    # would list the vectors of norm 33,490
    L = _sheared_e8(0, 5, 183)
    z = complex(0.1, 0.7)
    assert theta1_value(L, z) == theta1_value(QuadLattice(Mat(E8)), z)
    assert aut_order(L) == 696729600


def test_searches_run_on_a_short_basis():
    # E8 with b_7 = e_7 + 11 e_0 passes both tests, so it is enumerated as
    # given, but a search on it would list the vectors of Q <= 122, 1.5 *
    # 10^10 of them; the search basis is its LLL reduction
    L = _sheared_e8(7, 0, 11)
    assert L.gram[7, 7] == 244 and _defect(L.gram) < 2**28 and _spread(L.gram) <= 2**7
    assert enumeration_basis(L.gram)[0] is None
    U, S = search_basis(L.gram)
    assert U @ L.gram @ U.transpose() == S and max(S[i, i] for i in range(8)) == 2
    assert aut_order(L) == 696729600
    g = isometry_test(QuadLattice(Mat(E8)), L)
    assert g is not None and g.transpose() @ L.gram @ g == Mat(E8)


def test_shell_vectors_that_may_overflow_int64_are_refused():
    # A2 in the basis e_0, c e_0 + e_1: the rows found on its LLL reduction
    # go back through a transform with an entry near c, so at c = 2^63 the
    # vector y = (c, -1) at Q = 1 does not fit int64; at c = 2^40 it does
    def skewed_a2(c):
        S = Mat([[1, 0], [c, 1]])
        return S @ Mat([[2, -1], [-1, 2]]) @ S.transpose()
    gram = skewed_a2(2**40)
    rows = {tuple(y) for y in shell_vectors(gram, 1)[1].tolist()}
    assert len(rows) == 6 and (2**40, -1) in rows and all(QuadLattice(gram).q(y) == 1 for y in rows)
    gram = skewed_a2(2**63)
    with pytest.raises(NotSupported):
        shell_vectors(gram, 1)
    assert shell_counts(QuadLattice(gram), 1) == {0: 1, 1: 6}


def test_raw_leaves_keep_the_given_basis():
    # fincke_pohst_leaves enumerates the Gram it is given, reduced or not:
    # on a skew of A2 past the defect bound its candidates hold the six
    # vectors at Q = 1 in that basis, as the reduced enumeration mapped back
    U = Mat([[1, 0], [5, 1]])
    L = QuadLattice(U @ Mat([[2, -1], [-1, 2]]) @ U.transpose())
    assert enumeration_basis(L.gram)[0] is not None
    G = L.gram.to_numpy()
    found = set()
    for X, idx, x0 in quadlat.fincke_pohst_leaves(L.gram, 1):
        q = quadlat.leaf_norms(G, X, idx, x0)[1]
        found |= {tuple(r) for r in quadlat._join(X, idx, x0)[:, ::-1][q == 1].tolist()}
    assert len(found) == 6 and found == set(short_vectors(L, 1)[1])
