import hashlib
import json
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramodular import quadlat
from test_heckelocal import _in_threads
from paramodular.errors import (
    InvalidInvariant,
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
    _Backtracker,
    _join,
    _max_singular_subspaces,
    aut_order,
    aut_order_and_gens,
    constant_chain,
    e8_lattice,
    enumerate_chain_classes,
    fincke_pohst_leaves,
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


def test_min_positive_is_kept(monkeypatch):
    # minimum 4: the first call doubles its bound from 1, the second reads it
    bounds = []
    leaves = quadlat.fincke_pohst_leaves

    def counted(gram, bound, *args, **kwargs):
        bounds.append(bound)
        return leaves(gram, bound, *args, **kwargs)
    monkeypatch.setattr(quadlat, "fincke_pohst_leaves", counted)
    L = QuadLattice(Mat([[98, -30, 0], [-30, 58, -24], [0, -24, 12]]))
    assert L.min_positive() == 4 and bounds == [1, 2, 4]
    assert L.min_positive() == 4 and bounds == [1, 2, 4]


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
    with pytest.raises(ScaleLimit, match="reached 51 candidates, over the budget of 50"):
        short_vectors_exact(e8, 4, budget=50)
    # the chunked enumerator checks after each step, so the count it names
    # may pass the budget by more than one
    with pytest.raises(ScaleLimit, match="candidates, over the budget of 16") as info:
        shell_counts(e8, 1, budget=16)
    assert int(re.search(r"reached (\d+)", str(info.value)).group(1)) > 16


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
E8_GENS_SHA256 = "6e400a6a9d199fd0eb360d0c0924799b6f6a566e63ddd362f7433ab4ae09b1b3"
E8_AUT_NODES = 36
E8_CHAIN_STAB_NODES = 32


def test_aut_generators_pinned(e8):
    order, gens = aut_order_and_gens(e8, budget=E8_AUT_NODES)
    assert order == 696729600
    assert len(gens) == 8
    rows = [[list(r) for r in g.rows] for g in gens]
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode())
    assert digest.hexdigest() == E8_GENS_SHA256
    assert rows[0][0] == [1, 0, 0, 0, 0, 0, 0, -2]
    assert rows[-1][7] == [-2, 0, 1, 0, 0, 0, 0, 0]
    with pytest.raises(ScaleLimit, match=f"reached {E8_AUT_NODES} nodes, "
                                         f"over the budget of {E8_AUT_NODES - 1}"):
        aut_order_and_gens(e8, budget=E8_AUT_NODES - 1)


def test_chain_stabilizer_nodes_pinned(e8):
    chain = ParamodularChain(e8, (Mat.identity(8), Mat(E8_TWO_MODULAR)), (1, 2))
    assert aut_order(chain, budget=E8_CHAIN_STAB_NODES) == 2580480
    with pytest.raises(ScaleLimit, match=f"reached {E8_CHAIN_STAB_NODES} nodes, "
                                         f"over the budget of {E8_CHAIN_STAB_NODES - 1}"):
        aut_order(chain, budget=E8_CHAIN_STAB_NODES - 1)


def test_chain_classes_pinned(e8):
    (one,) = enumerate_chain_classes(e8, (1,))
    assert one.representative.coords == (Mat.identity(8),)
    assert (one.stabilizer_order, one.orbit_size) == (696729600, 1)
    (two,) = enumerate_chain_classes(e8, (1, 2))
    assert two.representative.coords == (Mat.identity(8), Mat(E8_TWO_MODULAR))
    assert (two.stabilizer_order, two.orbit_size) == (2580480, 270)


# sha256 of the JSON of [coordinate rows, stabilizer order, orbit size] of
# each class at the first levels with several classes, computed by the
# tuple-product search that chain_oracle.tuple_chain_classes keeps (about
# two minutes for each level)
LEVEL_SIX_SHA256 = {
    (1, 6): "39ce3c2a502e90315a994a9e0e501e27da99ef06b601af400d13e93e0afe83d2",
    (1, 2, 6): "8ad9dd078f39bfdd4bd51e9e8b4b9d343e102a13e63f6b328545c84e0b8b1f54",
    (1, 3, 6): "6d90c04ff1bb568d2087380dcef8fdb80c7d59803d3c123a5cb96943ae60266a",
}


@pytest.mark.parametrize("T", sorted(LEVEL_SIX_SHA256), ids=str)
def test_level_six_chain_classes_pinned(e8, T):
    classes = enumerate_chain_classes(e8, T)
    rows = [[[M.rows for M in c.representative.coords], c.stabilizer_order, c.orbit_size]
            for c in classes]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == LEVEL_SIX_SHA256[T]
    assert [c.stabilizer_order for c in classes] == [2880, 2304, 11520]
    # three orbits on the 270 * 2240 pairs of a 2-modular sublattice and a
    # 6-modular one inside it
    assert sum(c.orbit_size for c in classes) == 604800 == 270 * 2240
    assert all(c.stabilizer_order * c.orbit_size == 696729600 for c in classes)


A2 = [[2, -1], [-1, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


@pytest.mark.parametrize("gram, T", [
    (A2, (1, 2)), ([[4, 0], [0, 4]], (1, 3)), (D4, (1, 2)),
    (A2, (1,)), ([[4, 0], [0, 4]], (1,)), (D4, (1,)),
], ids=["A2-1,2", "4I-1,3", "D4-1,2", "A2-1", "4I-1", "D4-1"])
def test_chain_classes_need_a_unimodular_first_member(monkeypatch, gram, T):
    # one error for every T, before any search: A2 and 4I gave [] at their
    # T, and D4 failed its first sublattice check after the subspace search
    def searched(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(quadlat, "aut_order_and_gens", searched)
    monkeypatch.setattr(quadlat, "pmodular_coords", searched)
    with pytest.raises(InvalidInvariant, match="member 0 is not 1-modular"):
        enumerate_chain_classes(QuadLattice(Mat(gram)), T)


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


def test_fixed_image_outside_its_shell_is_typed(e8):
    # the search numbers each depth's candidates, so a fixed image must be
    # one of them: e0 + e1 (Q = 2), the zero vector and a vector past the
    # candidates' magnitude are all rejected as images of e1 (Q = 1)
    bt = _Backtracker(e8.gram, e8.gram)
    e = [[int(i == j) for j in range(8)] for i in range(8)]
    assert bt.extend(e[:2]) is not None
    for bad in ([1, 1, 0, 0, 0, 0, 0, 0], [0] * 8, [0] * 7 + [9]):
        with pytest.raises(NotSupported, match="is not in its shell"):
            bt.extend([e[0], bad])


ROOT_LATTICES = {
    "A2": (A2, 12),
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 48),
    "A1A2": ([[2, 0, 0], [0, 2, -1], [0, -1, 2]], 24),
    "A1^4": ([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]], 384),
    "D4": (D4, 1152),
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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), bound=st.integers(0, 6),
       chunk=st.sampled_from([1, 2, 3, 7, 1 << 19]))
def test_half_enumeration_is_one_of_each_pair(data, n, bound, chunk):
    # 2 B B^T plus a diagonally dominant part with odd off-diagonal entries:
    # an even positive definite Gram; a tiny chunk splits the all-zero row's
    # state at every level
    B = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    S = data.draw(st.lists(st.integers(-1, 1), min_size=n * n, max_size=n * n))
    gram = Mat([[2 * sum(B[i][k] * B[j][k] for k in range(n))
                 + (2 * n if i == j else S[min(i, j) * n + max(i, j)])
                 for j in range(n)] for i in range(n)])
    full = [tuple(r) for leaf in fincke_pohst_leaves(gram, bound, chunk)
            for r in _join(*leaf)[:, ::-1].tolist()]
    half = [tuple(r) for X, idx, x0 in fincke_pohst_leaves(gram, bound, chunk, half=True)
            for r in _join(X, idx, x0)[:, ::-1].tolist()]
    zero = (0,) * n
    negs = [tuple(-v for v in r) for r in half if r != zero]
    assert half.count(zero) == 1
    assert len(half) + len(negs) == len(full) == len(set(full))
    assert set(half) | set(negs) == set(full)


# sha256 of every (X, idx, x0) yield of fincke_pohst_leaves, as int64 shapes
# and bytes, over the bounds 0-5, both half modes and the chunks 7 and
# default, from the enumerator before its pivots were kept per Gram: the
# candidates, their order and their chunking are part of the contract, as
# the isometry search's node counts depend on them
LEAVES_SHA256 = {
    "A2": "bac49ecb34689810f67b5a2cd677db29252789ffa0a67d428f5824c17d35a393",
    "A3": "1c0d688d637406192d7b2dc20c2017cd7f11f6644011efda9aba465c606c7656",
    "A1A2": "2b73133eaa3261bbb5924591bd17d8b15b5177fa87ee8d56f057b7a0300c8a79",
    "A1^4": "1572eca3c97a733af8ccac8180e5de3080528cc0d8d472b864e61d6f99c8562a",
    "D4": "2ee60eb2a279f5a9f201b3d41909613edaecfacb1718dfd6028cf4661a2ea0f5",
    "E8": "16f77ecdc0aea3bafa6a2884ea2903549bfb9dc06a8369646aba72745b8db296",
    "E8-K": "08993ca77db7f67df64d60d0abf04b3d6ff01da3e302c74ddac18ab842cd53fc",
    "skew-E8/1": "0a209a1fb6b82c7a1a1ad6d47592cdac31b07e07d7dc6c82ef87bd4c6ff8e0fa",
    "skew-D4/0": "9d233db8b7e70181c1d6d9e050aff02be3794e9457af54f4c812648e04be30b5",
}


@pytest.mark.parametrize("name", sorted(LEAVES_SHA256))
def test_leaves_pinned(e8, name):
    grams = {nm: Mat(g) for nm, (g, _) in ROOT_LATTICES.items()}
    K = Mat(E8_TWO_MODULAR)
    grams |= {"E8": e8.gram, "E8-K": K @ e8.gram @ K.transpose()}
    gram = grams.get(name)
    if gram is None:    # "skew-<lattice>/<n>": the skew seeded by "<lattice>/<n>"
        seed = name.removeprefix("skew-")
        base = grams[seed.split("/")[0]]
        U = _skew(base.nrows, random.Random(seed))
        gram = U @ base @ U.transpose()
    h = hashlib.sha256()
    for bound in range(6):
        for half in (False, True):
            for chunk in (7, 1 << 19):
                for leaf in fincke_pohst_leaves(gram, bound, chunk, half=half):
                    for a in leaf:
                        a = np.ascontiguousarray(a, dtype=np.int64)
                        h.update(repr(a.shape).encode() + a.tobytes())
    assert h.hexdigest() == LEAVES_SHA256[name]


def test_pivots_are_shared_read_only_across_threads():
    # 100 rank-one Grams pass through the 64-entry cache from four threads
    # at once, so entries are evicted and built again while others read
    # them; every lattice keeps its own counts, and no caller can write to
    # the arrays that the others share
    lattices = [QuadLattice(Mat([[2 * k]])) for k in range(1, 101)]
    want = [{0: 1} | {k * x * x: 2 for x in range(1, 11) if k * x * x <= 100}
            for k in range(1, 101)]
    results = _in_threads(lambda: [shell_counts(L, 100) for L in lattices])
    assert len(results) == 4 and all(r == want for r in results)
    G, D, V = quadlat._pivots(e8_lattice().gram)
    for arr in (G, D, *V):
        with pytest.raises(ValueError):
            arr[...] = 0


# count and sha256 of the compact JSON of the maximal totally singular
# subspaces, from the vector-by-vector search that the bitset search replaced
SUBSPACE_INPUTS = {
    "D4": (D4, 1),
    "A1^4": (ROOT_LATTICES["A1^4"][0], 1),
    "A2A2": ([[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]], 1),
    "E6": ([[2, -1, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0], [0, -1, 2, -1, 0, -1],
            [0, 0, -1, 2, -1, 0], [0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 2]], 1),
    "2D4": ([[2 * x for x in row] for row in D4], 2),
}
SUBSPACE_PINS = {
    ("D4", 2): (1, "5a0835448b4d3ff20285a85ec33b6fc9db0e7b0c098913e55fa3568fadf6e002"),
    ("D4", 3): (8, "31400df68431cb716cdfca7149b086daa72cece5d32e6cdb46de75bc3ee218ff"),
    ("D4", 5): (12, "1826b4b33303efa1785650cc942e7d5b818e56b4784ad0060700c25f90b68c18"),
    ("A1^4", 2): (7, "9f9f264ddeb95ace4383860c0325d658ec9546a2e5146f8abf3439bd2904cf11"),
    ("A1^4", 3): (8, "055a6b863493d42fe9dec49fa1146bd07fc3f760e259608981546ecc4126bb7b"),
    ("A1^4", 5): (12, "981d3f519b3026f5902d46be5dd80106039e958524ce6d190c2c397bbd6d4e1d"),
    ("A2A2", 2): (6, "cdbc100b0b9273d3a117bdfeb9514054b3192077bff5e5ef04d60712dabc1017"),
    ("A2A2", 3): (1, "68692254541c5512750837fb069288d1b23aa685ef542738d3915947a6793f12"),
    ("A2A2", 5): (12, "46f0b3a651b514ec51d48be290b22e4bbd7a972bf57b717ac2e161a819acb0c3"),
    ("E6", 2): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("E6", 3): (40, "a4eabd252943474fac437dc0aeba74fa82ff83fc9a8240c6a8c347cdb413a1e7"),
    ("E6", 5): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ("2D4", 2): (1, "5a0835448b4d3ff20285a85ec33b6fc9db0e7b0c098913e55fa3568fadf6e002"),
    ("2D4", 3): (8, "31400df68431cb716cdfca7149b086daa72cece5d32e6cdb46de75bc3ee218ff"),
    ("2D4", 5): (12, "1826b4b33303efa1785650cc942e7d5b818e56b4784ad0060700c25f90b68c18"),
}


@pytest.mark.parametrize("name,p", sorted(SUBSPACE_PINS))
def test_singular_subspaces_pinned(name, p):
    gram, scale = SUBSPACE_INPUTS[name]
    out = _max_singular_subspaces(QuadLattice(Mat(gram)), p, scale, 10**6)
    digest = hashlib.sha256(json.dumps(out, separators=(",", ":")).encode())
    assert (len(out), digest.hexdigest()) == SUBSPACE_PINS[name, p]


# sha256 of the compact JSON of the rows of pmodular_coords(E8, 2)
E8_TWO_MODULAR_SHA256 = "f01559f4615ccce081f9ae5fba8839d83db894427c280acbb98b625717423ac1"


def test_pmodular_coords_e8_pinned(e8):
    # the budget counts the subspaces of each dimension: 2025 totally
    # singular 3-spaces in O+(8, 2)
    out = pmodular_coords(e8, 2, budget=2025)
    digest = hashlib.sha256(json.dumps([M.rows for M in out], separators=(",", ":")).encode())
    assert digest.hexdigest() == E8_TWO_MODULAR_SHA256
    with pytest.raises(ScaleLimit, match="2025 subspaces of dimension 3 of 4.*budget of 2024"):
        pmodular_coords(e8, 2, budget=2024)


def test_pmodular_coords_refuses_before_listing_points(e8):
    # F_101^8 has about 1.1 * 10^14 projective points, far over the default
    # budget: the count refuses at once, before any point is listed
    t0 = time.perf_counter()
    with pytest.raises(ScaleLimit, match="108285670562808 points .* budget of 1000000"):
        pmodular_coords(e8, 101)
    assert time.perf_counter() - t0 < 1


def test_pmodular_coords_odd_prime(e8):
    # O+(8, 3) has (1 + 1)(3 + 1)(9 + 1)(27 + 1) = 2240 maximal totally
    # singular subspaces, and each preimage is 3-modular
    out = pmodular_coords(e8, 3)
    assert len(out) == 2240 and len({M.rows for M in out}) == 2240
    g = out[0] @ e8.gram @ out[0].transpose()
    assert all(x % 3 == 0 for row in g.rows for x in row)
    assert abs(Mat([[x // 3 for x in row] for row in g.rows]).det()) == 1


@pytest.mark.parametrize("p", [1, 0, -3, 4, 6, 9])
def test_pmodular_coords_needs_a_prime(p):
    with pytest.raises(InvalidLevel):
        pmodular_coords(QuadLattice(Mat(D4)), p)


def test_rank_zero_lattice_rejected():
    with pytest.raises(InvalidRank):
        QuadLattice(Mat([]))
