import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramodular.errors import (
    InvalidLevel,
    InvalidRank,
    NonSquareFreeLevel,
    NotEven,
    NotPositiveDefinite,
    NotSupported,
    ScaleLimit,
)
from paramodular.exactmat import Mat, rational_inverse
from paramodular.quadlat import (
    ParamodularChain,
    QuadLattice,
    _max_singular_subspaces,
    _max_singular_subspaces_f2,
    aut_order,
    aut_order_and_gens,
    constant_chain,
    e8_lattice,
    enumerate_chain_classes,
    invariants,
    isometry_test,
    pmodular_coords,
    pmodular_sublattices,
    shell_counts,
    short_vectors,
    short_vectors_exact,
)


def test_validation():
    with pytest.raises(NotEven):
        QuadLattice(Mat([[1]]))
    with pytest.raises(NotPositiveDefinite):
        QuadLattice(Mat([[-2]]))
    with pytest.raises(NotPositiveDefinite):
        QuadLattice(Mat([[2, 3], [3, 2]]))


def test_invariants(e8):
    N, disc, dual = invariants(e8)
    assert (N, disc) == (1, 1)
    assert dual == rational_inverse(e8.gram)
    # unimodular means the dual has the same Gram
    assert dual.is_integral()
    A1 = QuadLattice(Mat([[2]]))
    assert (A1.level(), A1.disc()) == (4, 2)
    A1s = QuadLattice(Mat([[4]]))
    assert (A1s.level(), A1s.disc()) == (8, 4)


def test_shells_against_exact(e8):
    assert shell_counts(e8, 3) == {0: 1, 1: 240, 2: 2160, 3: 6720}
    sve = short_vectors_exact(e8, 2)
    svc = short_vectors(e8, 2)
    assert {q: len(v) for q, v in sve.items()} == {0: 1, 1: 240, 2: 2160}
    assert {q: sorted(v) for q, v in sve.items()} == \
        {q: sorted(v) for q, v in svc.items()}


def test_shells_random_forms():
    rng = random.Random(6)
    for _ in range(8):
        n = rng.randint(1, 3)
        while True:
            B = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            G = B @ B.transpose()
            G = G.scale(2)
            try:
                L = QuadLattice(G)
                break
            except (NotPositiveDefinite, NotEven):
                continue
        bound = rng.randint(1, 8)
        a = {q: len(v) for q, v in short_vectors_exact(L, bound).items()}
        b = shell_counts(L, bound)
        assert a == b


def test_isometry(e8):
    rng = random.Random(3)
    perm = list(range(8))
    rng.shuffle(perm)
    P = Mat([[1 if j == perm[i] else 0 for j in range(8)] for i in range(8)])
    other = QuadLattice(P @ e8.gram @ P.transpose())
    g = isometry_test(e8, other)
    assert g is not None
    assert g.transpose() @ other.gram @ g == e8.gram
    assert isometry_test(e8, QuadLattice(Mat.diagonal([2] * 8))) is None
    assert isometry_test(e8, QuadLattice(Mat([[2]]))) is None


def test_aut_orders(e8):
    assert aut_order(QuadLattice(Mat([[2]]))) == 2
    assert aut_order(QuadLattice(Mat.diagonal([2, 4]))) == 4
    order, gens = aut_order_and_gens(e8)
    assert order == 696729600
    for g in gens[:3]:
        assert g.transpose() @ e8.gram @ g == e8.gram


def test_pmodular_sublattices(e8):
    mats = pmodular_coords(e8, 2)
    assert len(mats) == 270
    K = mats[0]
    KL = QuadLattice(K @ e8.gram @ K.transpose())
    assert KL.disc() == 256
    # dual rescaled equals the lattice
    assert rational_inverse(KL.gram).scale(2).is_integral()
    # rescaling by the prime is even unimodular
    half = Mat([[x // 2 for x in row] for row in KL.gram.rows])
    assert abs(half.det()) == 1 and all(half[i, i] % 2 == 0 for i in range(8))
    subs = pmodular_sublattices(e8, 2)
    assert len(subs) == 270 and all(s.disc() == 256 for s in subs[:5])


def test_chain_validation(e8):
    I = Mat.identity(8)
    chain = constant_chain(e8, 2)
    assert chain.T == (1, 1)
    K = pmodular_coords(e8, 2)[0]
    ch = ParamodularChain(e8, (I, K), (1, 2))
    assert ch.member(1).disc() == 256
    with pytest.raises(NotEven):
        ParamodularChain(e8, (I, I), (1, 2))


def test_constant_chain_classes(e8):
    classes = enumerate_chain_classes(e8, (1, 1))
    assert len(classes) == 1
    assert classes[0].stabilizer_order == 696729600
    assert classes[0].orbit_size == 1


def test_chain_stabilizer_divides(e8, e8_chain):
    stab = aut_order(e8_chain)
    assert 696729600 % stab == 0
    assert stab == 2580480


def test_scale_limit_budget(e8):
    from paramodular.errors import ScaleLimit
    with pytest.raises(ScaleLimit):
        short_vectors_exact(e8, 4, budget=50)


# ---------------------------------------------------------------------------
# Pinned outputs of the automorphism and chain-class searches.  The node
# counts are pinned through the budgets: a search of N nodes passes with
# budget N and raises ScaleLimit with budget N - 1.
# ---------------------------------------------------------------------------

E8_TWO_MODULAR = [
    [1, 0, 0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 0, 1],
    [0, 0, 1, 1, 0, 0, 1, 0], [0, 0, 0, 2, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 1], [0, 0, 0, 0, 0, 2, 0, 0],
    [0, 0, 0, 0, 0, 0, 2, 0], [0, 0, 0, 0, 0, 0, 0, 2],
]
# sha256 of the compact JSON of the generator list of O(E8), as integer rows
E8_GENS_SHA256 = "4473d6bd5b5bdc757dc9b2daebe3c55a821c8a544924056eaae7f137c611392b"
E8_AUT_NODES = 3064
E8_CHAIN_STAB_NODES = 2259


def test_aut_generators_pinned(e8):
    order, gens = aut_order_and_gens(e8, budget=E8_AUT_NODES)
    assert order == 696729600
    assert len(gens) == 410
    rows = [[list(r) for r in g.rows] for g in gens]
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode())
    assert digest.hexdigest() == E8_GENS_SHA256
    assert rows[0][0] == [-2, -2, 1, 1, 0, 0, 0, 0]
    assert rows[-1][7] == [0, 0, 0, 0, 0, 0, 0, -1]
    with pytest.raises(ScaleLimit):
        aut_order_and_gens(e8, budget=E8_AUT_NODES - 1)


def test_chain_stabilizer_nodes_pinned(e8):
    chain = ParamodularChain(e8, (Mat.identity(8), Mat(E8_TWO_MODULAR)), (1, 2))
    assert aut_order(chain, budget=E8_CHAIN_STAB_NODES) == 2580480
    with pytest.raises(ScaleLimit):
        aut_order(chain, budget=E8_CHAIN_STAB_NODES - 1)


def test_chain_classes_pinned(e8):
    (one,) = enumerate_chain_classes(e8, (1,))
    assert one.representative.coords == (Mat.identity(8),)
    assert (one.stabilizer_order, one.orbit_size) == (696729600, 1)
    (two,) = enumerate_chain_classes(e8, (1, 2))
    assert two.representative.coords == (Mat.identity(8), Mat(E8_TWO_MODULAR))
    assert (two.stabilizer_order, two.orbit_size) == (2580480, 270)


def test_chain_class_errors(e8):
    with pytest.raises(InvalidLevel):
        enumerate_chain_classes(e8, (2,))
    with pytest.raises(InvalidLevel):
        enumerate_chain_classes(e8, (1, 3, 2))
    with pytest.raises(NonSquareFreeLevel):
        enumerate_chain_classes(e8, (1, 4))
    with pytest.raises(NonSquareFreeLevel):
        enumerate_chain_classes(e8, (1, 2, 4))
    with pytest.raises(InvalidRank):
        pmodular_coords(QuadLattice(Mat([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])), 2)
    I, K = Mat.identity(8), Mat(E8_TWO_MODULAR)
    with pytest.raises(InvalidLevel):
        ParamodularChain(e8, (I, K), (2, 4))
    with pytest.raises(InvalidLevel):
        ParamodularChain(e8, (I, K, K), (1, 2, 3))


def test_int64_overflow_is_typed():
    L = QuadLattice(Mat([[2**64, 0], [0, 2]]))
    with pytest.raises(NotSupported):
        shell_counts(L, 1)
    with pytest.raises(NotSupported):
        Mat([[2**63]]).to_numpy()
    # entries that fit int64 but whose candidate products may not
    with pytest.raises(NotSupported):
        aut_order(QuadLattice(Mat([[2**62, 0], [0, 2**62]])))


ROOT_LATTICES = {
    "A2": ([[2, -1], [-1, 2]], 12),
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 48),
    "A1A2": ([[2, 0, 0], [0, 2, -1], [0, -1, 2]], 24),
    "A1^4": ([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]], 384),
    "D4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], 1152),
}


def _skew(n, rng):
    """A seeded unimodular matrix: a signed permutation times a few
    elementary row operations with small multipliers."""
    perm = list(range(n))
    rng.shuffle(perm)
    U = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)]
         for i in range(n)]
    for _ in range(rng.randint(0, 4)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return Mat(U)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(ROOT_LATTICES)), seed=st.integers(0, 2**32 - 1))
def test_aut_and_isometry_on_skews(name, seed):
    gram, order = ROOT_LATTICES[name]
    L = QuadLattice(Mat(gram))
    U = _skew(L.rank, random.Random(seed))
    K = QuadLattice(U @ L.gram @ U.transpose())
    assert aut_order(K) == order
    g = isometry_test(L, K)
    assert g is not None
    assert g.transpose() @ K.gram @ g == L.gram


D4 = ROOT_LATTICES["D4"][0]


@pytest.mark.parametrize("gram,scale", [
    (D4, 1),
    (ROOT_LATTICES["A1^4"][0], 1),
    ([[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]], 1),
    ([[2, -1, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0], [0, -1, 2, -1, 0, -1],
      [0, 0, -1, 2, -1, 0], [0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 2]], 1),
    ([[2 * x for x in row] for row in D4], 2),
])
def test_f2_subspaces_match_generic_search(gram, scale):
    L = QuadLattice(Mat(gram))
    assert _max_singular_subspaces_f2(L, scale, 10**6) == \
        _max_singular_subspaces(L, 2, scale, 10**6)
