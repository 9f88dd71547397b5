import cmath
import hashlib
import json
import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import fraction_oracle as oracle
from chain_oracle import theta_coefficients_tuple

from paramodular import exactmat, quadlat, thetaser
from paramodular.errors import NotApplicable, NotInHalfSpace, ScaleLimit, TailTooLarge
from paramodular.exactmat import Mat
from paramodular.quadlat import (
    ChainClass,
    ParamodularChain,
    QuadLattice,
    constant_chain,
    shell_counts,
    shell_vectors,
)
from paramodular.thetaser import (
    CZ,
    chain2_eval,
    default_flip_points,
    divisor_sigma3,
    eisenstein_compare_deg1,
    flip_image,
    genus_theta,
    inversion_check,
    residue_histogram,
    theta1_value,
    theta_coefficients,
    theta_eval,
    translation_invariance_report,
)


def test_divisor_sigma3():
    assert [divisor_sigma3(n) for n in (1, 2, 3, 4)] == [1, 9, 28, 73]
    assert all(divisor_sigma3(n) == sympy.divisor_sigma(n, 3) for n in range(1, 5000))


def test_deg1_coefficients(e8):
    exp_ = theta_coefficients(constant_chain(e8, 1), 3)
    assert exp_.coefficients == {
        ((0,),): 1, ((2,),): 240, ((4,),): 2160, ((6,),): 6720}


def test_pair_coefficients_basics(e8, e8_chain):
    exp_ = theta_coefficients(e8_chain, 4)
    coeffs = exp_.coefficients
    assert coeffs[((0, 0), (0, 0))] == 1
    assert all(c > 0 for c in coeffs.values())
    # total-count identity against the per-member shells
    for B in (2, 3, 4):
        total = sum(c for H, c in coeffs.items()
                    if (H[0][0] + H[1][1]) // 2 <= B)
        conv = sum(c1 * c2
                   for q1, c1 in exp_.shells[0].items()
                   for q2, c2 in exp_.shells[1].items() if q1 + q2 <= B)
        assert total == conv
    # positive semidefinite keys only
    for H in coeffs:
        assert H[0][0] >= 0 and H[1][1] >= 0
        assert H[0][0] * H[1][1] - H[0][1] ** 2 >= 0


def test_translation_divisibility(e8_chain):
    exp_ = theta_coefficients(e8_chain, 5)
    rep = translation_invariance_report(exp_)
    assert rep["exact"]
    assert rep["cross_violations"] == {"0,1": 0}
    json.dumps(rep)     # the CLI prints this report inside its JSON
    for H in exp_.coefficients:
        assert (H[1][1] // 2) % 2 == 0


def test_three_member_chain_coefficients_pinned(e8, e8_chain):
    # the sha256 of the sorted E8 (1, 2, 2) counts at trace bound 4, as the
    # per-tuple recursion gave them
    K = e8_chain.coords[1]
    exp_ = theta_coefficients(ParamodularChain(e8, (Mat.identity(8), K, K), (1, 2, 2)), 4)
    assert len(exp_.coefficients) == 42
    assert hashlib.sha256(repr(sorted(exp_.coefficients.items())).encode()).hexdigest() == \
        "4eac4ee5f145b92124fc25354b9b812477665dccfe87963b5be637bac54bffc1"


def test_permuted_tuple_consistency(e8, e8_chain):
    # permuting the members transposes the keys
    fwd = theta_coefficients_tuple(e8, list(e8_chain.coords), 4)
    rev = theta_coefficients_tuple(e8, list(e8_chain.coords)[::-1], 4)
    flipped = {((H[1][1], H[0][1]), (H[0][1], H[0][0])): c
               for H, c in fwd.items()}
    assert flipped == rev


def test_theta_eval(e8):
    exp_ = theta_coefficients(constant_chain(e8, 1), 8)
    v = theta_eval(exp_, np.array([[4j]]), 1e-10)
    assert abs(v - 1) < 1e-8
    # evaluation is linear in the coefficients
    v2 = theta_eval(exp_, np.array([[1.5j]]), 1e-8)
    direct = sum(c * cmath.exp(1j * math.pi * H[0][0] * 1.5j)
                 for H, c in exp_.coefficients.items())
    assert abs(v2 - direct) < 1e-12
    with pytest.raises(NotInHalfSpace):
        theta_eval(exp_, np.array([[1.0 + 0j]]), 1e-8)


def test_theta1_against_shells(e8):
    val = theta1_value(e8, 1j)
    direct = sum(c * math.exp(-2 * math.pi * q)
                 for q, c in shell_counts(e8, 12).items())
    assert abs(val - direct) < 1e-10


def test_inversion_degree_one(e8):
    Lz = QuadLattice(Mat([[2]]))
    for z in (1j, complex(0.3, 1.1), complex(-0.2, 0.7)):
        assert inversion_check(Lz, z)
    assert inversion_check(e8, 1j)
    assert inversion_check(e8, complex(-0.4, 0.9))
    # the flip fixed point is symmetric by construction
    assert inversion_check(e8, complex(0, 1.0), tol=1e-10)


def _skewed_even_gram(rng, n):
    """U^T diag(2 a_i) U for a random unimodular U: even, positive definite,
    and its pivot bound ceil(min D_i) often lies below its minimum."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 6) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    D = [2 * rng.randint(1, 6) for _ in range(n)]
    return [[sum(U[k][i] * D[k] * U[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


# (Gram, Im z): the minimum is above the pivot bound 1, and the bound it
# certifies is below the one the pivot bound certifies, with vectors in
# between; the last two have their minimum 10 beyond the first bound
# (Im z = 2) or inside it (Im z = 0.3)
THETA1_CASES = [
    ([[98, -30, 0], [-30, 58, -24], [0, -24, 12]], 0.531),
    ([[58, 18, -18], [18, 6, -6], [-18, -6, 10]], 1.682),
    ([[8, 0, 0], [0, 78, -24], [0, -24, 8]], 1.685),
    ([[352, -1308, -348, 48], [-1308, 4928, 1308, -184], [-348, 1308, 348, -48],
      [48, -184, -48, 8]], 0.562),
    ([[200, 60], [60, 20]], 2.0),
    ([[200, 60], [60, 20]], 0.3),
]


@pytest.mark.parametrize("gram, y", THETA1_CASES)
def test_theta1_value_equals_oracle_below_the_minimum(gram, y):
    L = QuadLattice(Mat(gram))
    assert L.min_positive() > 1
    for x in (0.0, 0.37, -0.81):
        assert theta1_value(L, complex(x, y)) == oracle.theta1_value(L, complex(x, y))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), st.floats(-1, 1), st.floats(0.3, 2))
def test_theta1_value_equals_oracle(n, seed, x, y):
    L = QuadLattice(Mat(_skewed_even_gram(random.Random(seed), n)))
    assert theta1_value(L, complex(x, y)) == oracle.theta1_value(L, complex(x, y))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 100), st.integers(1, 16), st.floats(0.05, 5),
       st.sampled_from([1e-3, 1e-8, 1e-12, 1e-14]))
def test_tail_bound_matches_a_call_per_step(minimum, rank, y, tol):
    rate = 2 * math.pi * y
    assert thetaser._tail_bound(minimum, rank, rate, tol) == oracle.tail_bound(minimum, rank,
                                                                               rate, tol)


@pytest.mark.parametrize("minimum, rank, y, B", [(2, 8, 0.5, 9), (1, 4, 1.0, 13)])
def test_tail_bound_walks_from_a_wrong_guess(minimum, rank, y, B):
    # a tolerance between the tail at B and its two-term estimate moves the
    # guess one step after the answer (first case) or onto B, one step
    # before it (second case)
    rate = 2 * math.pi * y
    a, b = (thetaser._packing_count(q, [(minimum, rank)]) * math.exp(-rate * q) for q in (B + 1, B + 2))
    tol = (thetaser._packing_tail([(minimum, rank)], B, rate) + a * a / (a - b)) / 2
    assert thetaser._tail_bound(minimum, rank, rate, tol) == oracle.tail_bound(minimum, rank,
                                                                               rate, tol)


def test_tail_bound_raises_where_a_call_per_step_does():
    with pytest.raises(TailTooLarge):
        oracle.tail_bound(1, 8, 2 * math.pi * 1e-4, 1e-12)
    with pytest.raises(TailTooLarge):
        thetaser._tail_bound(1, 8, 2 * math.pi * 1e-4, 1e-12)


def test_theta1_value_enumerates_once(e8, monkeypatch):
    bounds = []
    leaves = quadlat.fincke_pohst_leaves

    def counted(gram, bound, *args, **kwargs):
        bounds.append(bound)
        return leaves(gram, bound, *args, **kwargs)
    monkeypatch.setattr(quadlat, "fincke_pohst_leaves", counted)
    grams = [[[2]], [[2, 0], [0, 2]], [[2, -1], [-1, 2]], [[2, -1, 0, 0], [-1, 2, -1, -1],
                                                           [0, -1, 2, 0], [0, -1, 0, 2]]]
    for L in [QuadLattice(Mat(g)) for g in grams] + [e8]:
        dual, N = L.dual_and_level()
        for M in (L, QuadLattice(dual.scale(N))):
            for z in (1j, complex(0.3, 0.8), complex(-0.45, 1.3)):
                bounds.clear()
                theta1_value(M, z)
                assert len(bounds) == 1, (M, z, bounds)
    # a minimum above the pivot bound but inside the first bound: pivot
    # bound 1, minimum 4, on a basis that is enumerated as given, so that
    # the pivots are its own (the reduced basis of THETA1_CASES[0] has
    # pivot bound 4, its minimum)
    bounds.clear()
    theta1_value(QuadLattice(Mat([[24, 12, 4], [12, 8, 4], [4, 4, 8]])), complex(0.2, 0.531))
    assert bounds == [13]


def test_theta1_value_beyond_the_first_bound_enumerates_once(monkeypatch):
    # minimum 4, pivot bound 1, first bound 3: the counts at 3 hold no
    # nonzero vector, so the value is 1, which the pivot bound certifies.
    # The minimum was once found as well, by doubling from 1 (bounds 1, 2, 4)
    bounds = []
    leaves = quadlat.fincke_pohst_leaves

    def counted(gram, bound, *args, **kwargs):
        bounds.append(bound)
        return leaves(gram, bound, *args, **kwargs)
    monkeypatch.setattr(quadlat, "fincke_pohst_leaves", counted)
    L = QuadLattice(Mat([[98, -30, 0], [-30, 58, -24], [0, -24, 12]]))
    for x in (0.2, 0.0, -0.37):
        bounds.clear()
        value = theta1_value(L, complex(x, 1.3))
        assert bounds == [3]
        assert value == oracle.theta1_value(L, complex(x, 1.3)) == 1


@pytest.mark.parametrize("gram", [[[2]], [[2, -1], [-1, 2]], [[4, 2], [2, 6]],
                                  [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                                   [0, -1, 0, 2]]] + [g for g, _ in THETA1_CASES[:4]])
def test_inversion_check_matches_oracle(gram):
    L = QuadLattice(Mat(gram))
    assert L.dual_and_level() == (oracle.rational_inverse(L.gram), oracle.level(L))
    for z in (1j, complex(0.3, 0.8), complex(-0.45, 1.3)):
        assert inversion_check(L, z) == oracle.inversion_check(L, z)


def test_inversion_check_eliminates_twice(monkeypatch):
    # one exact inverse gives the dual and the level, the rescaled dual's
    # constructor takes its leading minors; the lattice's own minors, which
    # give its discriminant and pivot bound, were taken when it was built,
    # and the lattice keeps its dual and level, so a later point only takes
    # the rescaled dual's minors
    calls = []
    eliminate = exactmat._eliminate

    def counted(*args, **kwargs):
        calls.append(args)
        return eliminate(*args, **kwargs)
    lattices = [quadlat.e8_lattice()] + [QuadLattice(Mat(g)) for g, _ in THETA1_CASES[:4]]
    monkeypatch.setattr(exactmat, "_eliminate", counted)
    for L in lattices:
        for z, want in ((1j, 2), (complex(0.3, 0.8), 1)):
            calls.clear()
            inversion_check(L, z)
            assert len(calls) == want, (L, z)


@pytest.mark.parametrize("bound", [-1, -2, -5])
def test_negative_bounds_give_empty_answers(e8, e8_chain, bound):
    # -2 and below raised numpy's "negative dimensions are not allowed"
    assert shell_counts(e8, bound) == {}
    assert quadlat.short_vectors(e8, bound) == {}
    exp_ = theta_coefficients(e8_chain, bound)
    assert exp_.coefficients == {} and exp_.shells == [{}, {}]


def test_chain_members_are_built_once(e8_chain):
    for j, C in enumerate(e8_chain.coords):
        M = e8_chain.member(j)
        assert e8_chain.member(j) is M and e8_chain.member_gram(j) is M.gram
        assert M.gram == C @ e8_chain.L1.gram @ C.transpose()


def test_genus_theta_single_class(e8):
    cls = ChainClass(constant_chain(e8, 1), 696729600, 1)
    gt = genus_theta([cls], 6)
    assert gt.total_weight == Fraction(1, 696729600)
    exp_ = theta_coefficients(constant_chain(e8, 1), 6)
    assert gt.averaged == {H: Fraction(c) for H, c in exp_.coefficients.items()}


def test_eisenstein_compare(e8):
    cls = ChainClass(constant_chain(e8, 1), 696729600, 1)
    gt = genus_theta([cls], 6)
    rep = eisenstein_compare_deg1(gt, 4, 6)
    assert rep["normalization"] == 240 and not rep["mismatches"]
    with pytest.raises(NotApplicable):
        eisenstein_compare_deg1(gt, 6, 4)


def test_flip_image_exact():
    Z = [[CZ(0, Fraction(1, 2)), CZ(Fraction(1, 2), 0)],
         [CZ(Fraction(1, 2), 0), CZ(0, Fraction(1, 2))]]
    W = flip_image((1, 2), Z)
    assert W[0][1].im == 0 and abs(W[0][1].re) == Fraction(1, 2)
    assert W[0][0].im == 1 and W[1][1].im == Fraction(1, 4)


def test_chain2_eval_matches_direct(e8_chain):
    # independent paths: bucketed evaluation vs the exact coefficient series
    Z = [[CZ(0, 2), CZ(Fraction(1, 2), 0)], [CZ(Fraction(1, 2), 0), CZ(0, 3)]]
    val, tail = chain2_eval(e8_chain, Z, 1e-10)
    exp_ = theta_coefficients(e8_chain, 6)
    zc = np.array([[2j, 0.5], [0.5, 3j]])
    direct = theta_eval(exp_, zc, 1e-6)
    assert tail < 1e-10
    assert abs(val - direct) < 1e-9


def test_default_points_valid():
    pts = default_flip_points((1, 2))
    assert len(pts) == 5
    for Z in pts:
        W = flip_image((1, 2), Z)
        assert W[0][1].im == 0
        assert W[0][1].re.denominator <= 4


def test_tail_too_large(e8):
    from paramodular.errors import TailTooLarge
    exp_ = theta_coefficients(constant_chain(e8, 1), 2)
    with pytest.raises(TailTooLarge):
        theta_eval(exp_, np.array([[0.05j]]), 1e-10)


def test_empty_genus():
    from paramodular.errors import EmptyGenus
    with pytest.raises(EmptyGenus):
        genus_theta([], 4)


def test_not_supported_degrees(e8):
    from paramodular.errors import NotSupported
    from paramodular.thetaser import paramodularity_check
    with pytest.raises(NotSupported):
        paramodularity_check(constant_chain(e8, 1))
    with pytest.raises(NotSupported):
        default_flip_points((1, 3))


def test_class_invariance_of_coefficients(e8):
    # isometric chains produce identical coefficient maps
    from paramodular.quadlat import pmodular_coords, isometry_test
    from paramodular.quadlat import ParamodularChain
    coords = pmodular_coords(e8, 2)
    I = Mat.identity(8)
    c1 = theta_coefficients(ParamodularChain(e8, (I, coords[0]), (1, 2)), 4)
    c2 = theta_coefficients(ParamodularChain(e8, (I, coords[1]), (1, 2)), 4)
    assert c1.coefficients == c2.coefficients
    K1 = QuadLattice(coords[0] @ e8.gram @ coords[0].transpose())
    K2 = QuadLattice(coords[1] @ e8.gram @ coords[1].transpose())
    assert isometry_test(K1, K2) is not None


# ---------------------------------------------------------------------------
# Residue histograms and chain2_eval evaluated from them.
# ---------------------------------------------------------------------------

def _row_sums(keys, counts, n, M):
    out = {}
    for k, c in zip(keys.tolist(), counts.tolist()):
        out[k // M**n] = out.get(k // M**n, 0) + c
    return out


def _pairing(chain):
    # b(member2 basis, member1 basis); member 1 residues are x1 @ W.T mod M
    G1 = chain.L1.gram.to_numpy()
    C1, C2 = (C.to_numpy() for C in chain.coords)
    return C2 @ G1 @ C1.T


def test_e8_histogram_is_the_theta_series(e8):
    keys, counts = residue_histogram(e8.gram, 2, 10)
    assert _row_sums(keys, counts, 8, 2) == \
        {0: 1, **{q: 240 * divisor_sigma3(q) for q in range(1, 11)}}


def test_member_histogram_row_sums(e8_chain):
    K = e8_chain.member(1)
    keys, counts = residue_histogram(K.gram, 2, 12)
    assert _row_sums(keys, counts, 8, 2) == shell_counts(K, 12)


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("paired", [False, True])
def test_histogram_against_full_enumeration(e8_chain, M, paired):
    # every vector of the full enumeration, bucketed by its residue; then
    # member 1 in the basis S = I + 10^5 E_76, which fails the defect test:
    # it is enumerated on its LLL reduction, whose residues and rows are
    # carried back by U.  Its vectors are y = x S^-1 for the vectors x of
    # member 1 in its own basis, and the pairing of x = y S is y S W.T
    gram = e8_chain.member_gram(0)
    W = _pairing(e8_chain).T
    powers = M ** np.arange(8, dtype=np.int64)
    shells = shell_vectors(gram, 4)
    for shear in (0, 10**5):
        S, Si = np.eye(8, dtype=np.int64), np.eye(8, dtype=np.int64)
        S[7, 6], Si[7, 6] = shear, -shear
        skewed = Mat(S.tolist()) @ gram @ Mat(S.tolist()).transpose()
        assert (quadlat.enumeration_basis(skewed)[0] is None) == (shear == 0)
        want = {}
        for q, X in shells.items():
            for r in ((X @ (W if paired else Si)) % M @ powers).tolist():
                want[q * M**8 + r] = want.get(q * M**8 + r, 0) + 1
        keys, counts = thetaser._remap(*residue_histogram(skewed, M, 4), M, 8,
                                       S @ W if paired else None)
        assert dict(zip(keys.tolist(), counts.tolist())) == want
        assert keys.tolist() == sorted(want)
        rows = shell_vectors(skewed, 4)
        assert sorted(rows) == sorted(shells)
        for q, X in shells.items():
            assert sorted(map(tuple, rows[q].tolist())) == sorted(map(tuple, (X @ Si).tolist()))


def _count_builds(monkeypatch):
    """The (M, bound) of every histogram build from here on."""
    builds = []
    build = thetaser.residue_histogram

    def counted(*args):
        builds.append(args[1:3])
        return build(*args)
    monkeypatch.setattr(thetaser, "residue_histogram", counted)
    return builds


def _empty_chain(chain):
    """The same chain as a new object, with nothing built or kept."""
    return ParamodularChain(chain.L1, chain.coords, chain.T)


def test_histogram_prefix_matches_fresh_build(e8_chain, monkeypatch):
    chain = _empty_chain(e8_chain)
    builds = _count_builds(monkeypatch)
    thetaser._chain_histograms(chain, 2, 6, 14)
    assert builds == [(2, 6), (2, 14)]
    # smaller bounds take prefixes, which equal fresh builds
    cut = thetaser._chain_histograms(chain, 2, 4, 9)
    assert builds == [(2, 6), (2, 14)]
    fresh = (thetaser._remap(*residue_histogram(chain.member_gram(0), 2, 4), 2, 8,
                             _pairing(chain).T),
             residue_histogram(chain.member_gram(1), 2, 9))
    for (k, c), (kf, cf) in zip(cut, fresh):
        assert np.array_equal(k, kf) and np.array_equal(c, cf)
    # a larger bound rebuilds that member's entry only
    thetaser._chain_histograms(chain, 2, 6, 15)
    assert builds == [(2, 6), (2, 14), (2, 15)]
    assert sorted((key, entry[0]) for key, entry in chain._histograms.items()) == \
        [((0, 2), 6), ((1, 2), 15)]


def test_stored_chain2_eval_runs_no_enumeration(e8_chain, monkeypatch):
    Z = [[CZ(0, 2), CZ(Fraction(1, 2), 0)], [CZ(Fraction(1, 2), 0), CZ(0, 3)]]
    chain = _empty_chain(e8_chain)
    first = chain2_eval(chain, Z)

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated on a warm chain")
    # the histograms and the member minima of _flip_setup
    monkeypatch.setattr(thetaser, "fincke_pohst_leaves", no_enumeration)
    monkeypatch.setattr(quadlat, "fincke_pohst_leaves", no_enumeration)
    assert chain2_eval(chain, Z) == first
    # a point with smaller bounds reads prefixes too
    chain2_eval(chain, [[CZ(0, 3), CZ(Fraction(1, 2), 0)], [CZ(Fraction(1, 2), 0), CZ(0, 4)]])
    with pytest.raises(AssertionError):
        chain2_eval(_empty_chain(e8_chain), Z)


def test_chain2_eval_from_four_threads(e8_chain, monkeypatch):
    # two points on one empty chain, two threads each: the first takes the
    # bounds (8, 7), the second (6, 12).  A build at a member's smaller bound
    # waits until the larger one is done, so that a store which let the
    # smaller build replace the larger one would show.  Every value is the
    # single-threaded one, and afterwards the chain keeps the larger build of
    # each member, so that a second round enumerates nothing
    half = CZ(Fraction(1, 2), 0)
    points = [[[CZ(0, Fraction(3, 4)), half], [half, CZ(0, Fraction(3, 4))]],
              [[CZ(0, 1), half], [half, CZ(0, Fraction(1, 2))]]]
    want = [chain2_eval(_empty_chain(e8_chain), P) for P in points]
    chain = _empty_chain(e8_chain)
    done = {8: threading.Event(), 12: threading.Event()}
    builds = []
    build = thetaser.residue_histogram

    def ordered(gram, M, bound, *rest):
        if bound in (6, 7):
            done[{6: 8, 7: 12}[bound]].wait(10)
        out = build(gram, M, bound, *rest)
        builds.append(bound)
        if bound in done:
            done[bound].set()
        return out
    monkeypatch.setattr(thetaser, "residue_histogram", ordered)
    start = threading.Barrier(4, timeout=60)
    got = [None] * 4

    def work(i):
        start.wait()
        got[i] = chain2_eval(chain, points[i % 2])
    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want * 2
    assert {key: entry[0] for key, entry in chain._histograms.items()} == \
        {(0, 2): 8, (1, 2): 12}
    builds.clear()
    assert [chain2_eval(chain, P) for P in points] == want
    assert builds == []


def test_histogram_budget_counts_pairs(e8):
    # the full enumeration of E8 at Q <= 4 examines 49,844 candidates over
    # its eight levels; the half one examines the all-zero prefix once per
    # level and one of every other pair, (49,844 + 8) / 2.  Both the shell
    # counts and the histograms enumerate half
    half = 24926
    assert sum(shell_counts(e8, 4, budget=half).values()) == 26641
    with pytest.raises(ScaleLimit, match=f"over the budget of {half - 1}"):
        shell_counts(e8, 4, budget=half - 1)
    keys, counts = residue_histogram(e8.gram, 2, 4, budget=half)
    assert int(counts.sum()) == 26641
    with pytest.raises(ScaleLimit, match=f"over the budget of {half - 1}"):
        residue_histogram(e8.gram, 2, 4, budget=half - 1)


def _reference(chain, Z, B1, B2):
    """The truncated double sum of chain2_eval at Z, in 30-digit arithmetic,
    from the exact histograms."""
    mpmath = pytest.importorskip("mpmath")
    z12 = Z[0][1].re
    M, a = z12.denominator, z12.numerator % z12.denominator
    n = chain.L1.rank
    k1, c1 = thetaser._remap(*residue_histogram(chain.member_gram(0), M, B1), M, n,
                             _pairing(chain).T)
    k2, c2 = residue_histogram(chain.member_gram(1), M, B2)
    digits = [[(r // M**i) % M for i in range(n)] for r in range(M**n)]
    with mpmath.workdps(30):
        def e(z, q):
            x = mpmath.mpf(z.re.numerator) / z.re.denominator
            y = mpmath.mpf(z.im.numerator) / z.im.denominator
            return mpmath.exp(2j * mpmath.pi * q * mpmath.mpc(x, y))

        A = [mpmath.mpc(0)] * M**n
        for k, c in zip(k2.tolist(), c2.tolist()):
            A[k % M**n] += c * e(Z[1][1], k // M**n)
        roots = [mpmath.exp(2j * mpmath.pi * t / M) for t in range(M)]
        total = mpmath.mpc(0)
        for k, c in zip(k1.tolist(), c1.tolist()):
            d = digits[k % M**n]
            inner = sum(A[w] * roots[a * sum(x * y for x, y in zip(d, digits[w])) % M]
                        for w in range(M**n) if A[w])
            total += c * e(Z[0][0], k // M**n) * inner
        return complex(total)


def test_chain2_eval_matches_30_digit_reference(e8_chain, monkeypatch):
    # the first default point and its flip image: the truncation bounds are
    # the ones of the last histogram request, and no digit of the value may
    # be lost beyond the double precision of the terms
    Z = default_flip_points((1, 2))[0]
    seen = []
    chain_histograms = thetaser._chain_histograms
    monkeypatch.setattr(thetaser, "_chain_histograms",
                        lambda chain, M, B1, B2, *rest:
                        seen.append((B1, B2)) or chain_histograms(chain, M, B1, B2, *rest))
    for P in (Z, flip_image((1, 2), Z)):
        val, tail = chain2_eval(e8_chain, P)
        ref = _reference(e8_chain, P, *seen[-1])
        assert abs(val - ref) < 1e-13, (val, ref)
        assert tail < 1e-10


def test_tuple_join_names_its_count():
    # A2 has 1 vector at Q = 0, 6 at Q = 1 and none at Q = 2; 3 of the 6 are
    # halved.  With total Q <= 2 the q-tuples with at most one nonzero member
    # are shell counts and charged nothing.  Each other q-tuple is charged
    # the halved rows of its nonzero members but the last, and a histogram
    # of 2 isqrt(4 * 1 * 1) + 1 = 5 cells: (0, 1, 1) 3 + 5, and (1, 0, 1)
    # reaches 16 with 3 + 5.  (1, 1, 0) brings the charge to 24, the least
    # budget that passes: the zero key, 3 diagonal keys and 4 per pair
    A2 = QuadLattice(Mat([[2, -1], [-1, 2]]))
    with pytest.raises(ScaleLimit, match=r"tuple join reached 16 partial tuples and histogram "
                                         r"cells at the radix \[1, 5, 1\], over the budget of 15"):
        theta_coefficients_tuple(A2, [Mat.identity(2)] * 3, 2, budget=15)
    assert len(theta_coefficients_tuple(A2, [Mat.identity(2)] * 3, 2, budget=24)) == 16


def test_tuple_join_charges_its_histograms():
    # five members of the rank-1 lattice [[2]] form few tuples, but the
    # radix of the q-tuple (49, 49, 49, 36, 16) alone has about 5 * 10^21
    # cells, past int64: the cells are charged, and refused, before any key
    # is formed
    with pytest.raises(ScaleLimit, match=r"histogram cells at the radix \[1, .*\], "
                                         r"over the budget of 1000000"):
        theta_coefficients_tuple(QuadLattice(Mat([[2]])), [Mat.identity(1)] * 5, 200,
                                 budget=10**6)


# the sha256 of repr(list(items)) of the E8 (1, 2) counts at trace bounds
# 0-8, in the order of the dict, as the join with member 2's full rows gave
# them: theta_eval sums the terms in that order
E8_PAIR_ITEMS = [
    "b7a5ea630d6e0abf04175643eee045536206c48aed76d192ca3d8198034af0f9",
    "42d0296a4f5303dfcd5c434362deadb3214da68c21f8f50819653b9dcf61cb13",
    "2d198dd2f395c1b1bbf91bacad4e4847aab8a936b949e05a25291d639c2b7390",
    "08e6c434e982881cf6a977b62f9045a221ad48e2fe3d09a1a4738a987b11b5ff",
    "bc76735757724e1818e469faf0717d3e4a0e349bb6306c3d950210bfef7dbb01",
    "212c18d17f73641fd772672aa9382b67e0346ef02d33d6ca9a2ace8805498fc8",
    "6375a78b22dce7f9e6cd863adecc2879e8936fe6e78505dfc4392693686ad9dd",
    "d752f0fdb621e48658e42b6c1e7a0f9910e1348b73d4beae3f890c63185b1c81",
    "8e781098f846b9099b523a28bc071e9a2eb64eae80cfe34065efc9ec278a0751",
]


def test_pair_join_items_pinned_in_order(e8_chain):
    for bound, want in enumerate(E8_PAIR_ITEMS):
        items = list(theta_coefficients(e8_chain, bound).coefficients.items())
        assert hashlib.sha256(repr(items).encode()).hexdigest() == want, bound


def test_one_member_join_is_the_shell_counts(e8):
    # one member has no pair, so every key is a shell count: the dict of the
    # former one-member path, in order, whose sha256 is pinned
    items = list(theta_coefficients(constant_chain(e8, 1), 8).coefficients.items())
    assert items == [(((2 * q,),), c) for q, c in shell_counts(e8, 8).items()]
    assert hashlib.sha256(repr(items).encode()).hexdigest() == \
        "d3f0ab76dd19df518a5cf74a770d6f9b36c4c69e891cba2e7c36b089f5595c2e"


def test_pair_join_fits_the_default_budget_at_bound_10(e8_chain):
    # a two-member join is charged member 1's rows and one histogram of at
    # most 4 * bound + 1 cells per q-tuple, not its 251,540,642 pairs; the
    # sha256 of the sorted counts was computed with the former pair join
    exp_ = theta_coefficients(e8_chain, 10)
    assert len(exp_.coefficients) == 280
    assert hashlib.sha256(repr(sorted(exp_.coefficients.items())).encode()).hexdigest() == \
        "31550d23f25df2df95777145428909492d1275ead3d99417321d7d456890b4f2"
