import hashlib
import json
import sys
import threading
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classify_oracle import (classify_internal_cofactor, monomial_block_by_slot,
                             representative_lattice_by_slot)
from paramodular import heckelocal
from paramodular.errors import (
    IncompatibleLocals,
    InvalidInvariant,
    InvalidLevel,
    NotElementary,
    NotIsometric,
    ScaleLimit,
)
from paramodular.exactmat import Mat, smith_divisors, valuation
from paramodular.heckelocal import (
    LocalDoubleCoset,
    LocalLattice,
    LocalShape,
    classify_pair,
    classify_rel_rational,
    coset_partition,
    enumerate_Tpj,
    enumerate_neighbors,
    global_representative,
    hecke_product,
    left_cosets,
    monomial_block,
    neighbor_bounds_ok,
    neighbor_count_formula,
    neighbors_of,
    representative_lattice,
    representative_matrix,
    transpose_integrality,
)
from paramodular.heckelocal import (
    _ball,
    _class_of,
    _classify,
    _clear_p,
    _frame,
    _key,
    _normalize,
    _product_frames,
    _scale_to_int,
    _standard_frame,
    standard_internal,
)

SHAPES = [LocalShape(p, a, b) for p in (2, 3)
          for (a, b) in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
# the shapes whose T(p^2) partitions the benchmark runs
J2_SHAPES = [LocalShape(2, 1, 0), LocalShape(2, 0, 1), LocalShape(3, 1, 0),
             LocalShape(3, 0, 1), LocalShape(2, 1, 1)]


def matrix_image_lattice(dc: LocalDoubleCoset, D: Mat) -> tuple[list[list[int]], int]:
    """Image of the target standard lattice under a symplectic matrix D,
    converted to base-lattice coordinates (internal form).

    D acts on column vectors in standard symplectic coordinates; the target
    standard lattice has the shape (a_target, b_target) of dc.
    """
    p = dc.shape.p
    n = dc.shape.n
    scal_t = [1] * dc.a_target + [p] * dc.b_target
    scal_s = [1] * dc.shape.a + [p] * dc.shape.b
    Et = Mat.diagonal([1] * n + scal_t)
    Es_inv = Mat.diagonal([1] * n + [F(1, s) for s in scal_s])
    img = Et @ D.transpose() @ Es_inv
    return _normalize(*_clear_p(img.rows, p), p)


def shape_diag(shape: LocalShape) -> Mat:
    return Mat.diagonal([1] * shape.a + [shape.p] * shape.b)


def target_diag(dc: LocalDoubleCoset) -> Mat:
    return Mat.diagonal([1] * dc.a_target + [dc.shape.p] * dc.b_target)

def test_classify_examples():
    sh = LocalShape(2, 1, 1)
    dc = classify_pair(sh, LocalLattice(Mat.identity(4)))
    assert (dc.r_minus, dc.r_plus, dc.mu) == (0, 0, (0, 0))
    p = 2
    L = LocalLattice(Mat([[p, 0, 0, 0], [0, 1, 0, 0],
                          [0, 0, F(1, p), 0], [0, 0, 0, 1]]).transpose())
    dc = classify_pair(sh, L)
    assert (dc.r_minus, dc.r_plus, dc.mu) == (0, 0, (1, 0))
    sh10 = LocalShape(2, 1, 0)
    dc = classify_pair(sh10, LocalLattice(Mat([[2, 0], [0, 1]])))
    assert (dc.r_minus, dc.r_plus, dc.mu) == (1, 0, (1,))
    assert (dc.a_target, dc.b_target) == (0, 1)
    # level divisible by p^2 is rejected
    with pytest.raises(NotElementary):
        classify_pair(sh, LocalLattice(Mat.diagonal([1, 1, 4, 1])))
    # far-away but still p-elementary lattices are fine
    dc4 = classify_pair(sh, LocalLattice(Mat.diagonal([4, 1, F(1, 4), 1])))
    assert dc4.mu == (2, 0)


def test_representative_matrices():
    dc = LocalDoubleCoset(LocalShape(2, 1, 0), 0, 0, (3,))
    assert representative_matrix(dc) == Mat.diagonal([8, F(1, 8)])
    dc = LocalDoubleCoset(LocalShape(2, 1, 1), 1, 1, (1, 0))
    assert monomial_block(dc) == Mat([[0, 2], [1, 0]])
    with pytest.raises(InvalidInvariant):
        LocalDoubleCoset(LocalShape(2, 1, 1), 1, 1, (0, 0))
    with pytest.raises(InvalidInvariant):
        LocalDoubleCoset(LocalShape(2, 2, 0), 0, 0, (2, 1))


def test_representative_soundness_p2():
    for (a, b) in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        shape = LocalShape(2, a, b)
        for j in range(3):
            for dc in enumerate_Tpj(shape, j):
                rows, k = representative_lattice(dc)
                got = classify_pair(shape, LocalLattice.from_internal(rows, k, 2))
                assert (got.r_minus, got.r_plus, got.mu) == \
                    (dc.r_minus, dc.r_plus, dc.mu)
                D = representative_matrix(dc)
                assert _key(*matrix_image_lattice(dc, D)) == _key(rows, k)


def _classes_mu_at_most_3(p):
    """Every class with each mu_i <= 3 of every shape with n <= 3."""
    for n in (1, 2, 3):
        for a in range(n + 1):
            shape = LocalShape(p, a, n - a)
            for rm, rp in product(range(a + 1), range(n - a + 1)):
                for mu in product(range(4), repeat=n):
                    try:
                        yield LocalDoubleCoset(shape, rm, rp, mu)
                    except InvalidInvariant:
                        pass


@pytest.mark.parametrize("p", [2, 3])
def test_slot_layout_matches_the_per_slot_representatives(p):
    classes = list(_classes_mu_at_most_3(p))
    assert len(classes) == 815
    assert sum(dc.r_minus != dc.r_plus for dc in classes) > 0
    for dc in classes:
        assert monomial_block(dc) == monomial_block_by_slot(dc)
        assert representative_lattice(dc) == representative_lattice_by_slot(dc)


def test_transpose_integrality_and_reshuffle():
    B = Mat.diagonal([1, 3])
    assert transpose_integrality(B, Mat.diagonal([1, 3]), Mat.identity(2))
    for p in (2, 3):
        shape = LocalShape(p, 1, 1)
        for j in range(3):
            for dc in enumerate_Tpj(shape, j):
                Bm = monomial_block(dc)
                T, Tp = target_diag(dc), shape_diag(shape)
                assert transpose_integrality(Bm, T, Tp)
                r, a = dc.r_minus, shape.a
                mu = dc.mu
                new_mu = tuple([mu[a + i] + 1 for i in range(r)]
                               + list(mu[r:a])
                               + [mu[i] - 1 for i in range(r)]
                               + list(mu[a + r:]))
                M = T.inverse() @ Bm.transpose() @ Tp
                assert M == monomial_block(LocalDoubleCoset(shape, r, r, new_mu))


def test_enumerate_Tpj_counts():
    assert len(enumerate_Tpj(LocalShape(2, 1, 0), 0)) == 1
    assert len(enumerate_Tpj(LocalShape(2, 1, 0), 1)) == 1
    tuples = enumerate_Tpj(LocalShape(2, 1, 1), 1)
    assert len(tuples) == 3
    assert {(t.r_minus, t.mu) for t in tuples} == \
        {(0, (1, 0)), (0, (0, 1)), (1, (1, 0))}


def test_neighbor_formula_values():
    assert neighbor_count_formula(2, 1, 0) == 6
    assert neighbor_count_formula(2, 1, 1) == 66
    assert neighbor_count_formula(3, 0, 1) == 12


def test_neighbor_enumeration_small():
    for (p, a, b) in [(2, 1, 0), (2, 0, 1), (3, 1, 0)]:
        got = enumerate_neighbors(LocalShape(p, a, b))
        assert len(got) == neighbor_count_formula(p, a, b)
        keys = set()
        for L in got:
            keys.add(_key(*L.to_internal(p)))
        assert len(keys) == len(got)


@pytest.mark.parametrize("a, b", [(3, 0), (2, 1), (1, 2), (0, 3)])
def test_neighbor_enumeration_rank_three(a, b):
    got = enumerate_neighbors(LocalShape(2, a, b))
    assert len(got) == neighbor_count_formula(2, a, b)
    assert len({_key(*L.to_internal(2)) for L in got}) == len(got)


@pytest.mark.parametrize("a, b", [(1, 0), (0, 1)])
def test_products_commute_at_p5(a, b):
    shape = LocalShape(5, a, b)
    assert hecke_product(shape, 1, 2) == hecke_product(shape, 2, 1)


def test_bounds():
    assert neighbor_bounds_ok(5, 2, 1)
    assert neighbor_bounds_ok(3, 0, 2)
    assert neighbor_bounds_ok(2, 1, 0)
    # the stated power-of-two bound is violated at mixed shapes: the count
    # 66 at (1,1) exceeds 2**6; kept as a documented failure in acceptance
    assert not neighbor_bounds_ok(2, 1, 1)


def test_partition_p2():
    shape = LocalShape(2, 1, 1)
    parts = coset_partition(shape, 1)
    assert {(_d.r_minus, _d.mu): len(v) for _d, v in parts.items()} == {
        (0, (1, 0)): 24, (0, (0, 1)): 24, (1, (1, 0)): 18}
    assert sum(len(v) for v in parts.values()) == 66


def test_products():
    shape = LocalShape(2, 1, 0)
    prod = hecke_product(shape, 1, 1)
    flat = {(dc.weight, dc.mu): m for dc, m in prod.items()}
    # affine rank-one pattern: q(q+1) identity, (q-1) middle, one top
    assert flat == {(0, (0,)): 6, (1, (1,)): 1, (2, (2,)): 1}
    prod0 = hecke_product(LocalShape(2, 1, 1), 0, 1)
    assert all(m == 1 and dc.weight == 1 for dc, m in prod0.items())
    assert len(prod0) == 3


def test_global_representative():
    T = Mat.diagonal([1, 2])
    assert global_representative(T, T, {}) == Mat.identity(2)
    dc = LocalDoubleCoset(LocalShape(2, 1, 1), 0, 0, (1, 0))
    B = global_representative(T, T, {2: dc})
    assert B.det() == 2 and B.is_integral()
    assert transpose_integrality(B, T, T)
    T6 = Mat.diagonal([1, 6])
    dc3 = LocalDoubleCoset(LocalShape(3, 1, 1), 1, 1, (1, 0))
    B = global_representative(T6, T6, {2: dc, 3: dc3})
    assert B.det() == 6 and transpose_integrality(B, T6, T6)
    # classes recovered at each prime
    n = 2
    h = Mat.from_blocks([[B, Mat.zeros(n, n)],
                         [Mat.zeros(n, n), B.inverse().transpose()]])
    J = Mat.from_blocks([[Mat.zeros(n, n), Mat.identity(n)],
                         [Mat.identity(n).scale(-1), Mat.zeros(n, n)]])
    E = Mat.diagonal([1, 1, 1, 6])
    mov = E @ h.transpose()
    for p, want in ((2, dc), (3, dc3)):
        got = classify_rel_rational(J, E, mov, p)
        assert (got.r_minus, got.r_plus, got.mu) == \
            (want.r_minus, want.r_plus, want.mu)
    with pytest.raises(IncompatibleLocals):
        global_representative(Mat.diagonal([1]), Mat.diagonal([2]), {})


def test_classify_orbit_invariance():
    # invariant tuples do not change along products of group generators
    import random
    from paramodular.garrett import sp_generators_symplectic
    rng = random.Random(8)
    shape = LocalShape(2, 1, 1)
    gens = sp_generators_symplectic([1, 2])
    gens += [g.inverse() for g in gens]
    base = standard_internal(shape)
    for dc in enumerate_Tpj(shape, 1):
        rows, k = representative_lattice(dc)
        E = Mat.diagonal([1, 1, 1, 2])
        mov0 = Mat([[F(x, 2**k) for x in row] for row in rows]) @ E
        for _ in range(8):
            g = Mat.identity(4)
            for _w in range(6):
                g = g @ rng.choice(gens)
            mov = mov0 @ g.transpose()
            J = Mat.from_blocks([[Mat.zeros(2, 2), Mat.identity(2)],
                                 [Mat.identity(2).scale(-1), Mat.zeros(2, 2)]])
            got = classify_rel_rational(J, E, mov, 2)
            assert (got.r_minus, got.r_plus, got.mu) == \
                (dc.r_minus, dc.r_plus, dc.mu)
            assert got == classify_internal_cofactor(
                2, [list(r) for r in J.rows], *_scale_to_int(E, 2),
                *_scale_to_int(mov, 2), strict=False)


def test_left_cosets_match_neighbors():
    shape = LocalShape(2, 1, 0)
    # all weight-one classes together give exactly the neighbors
    allkeys = set()
    total = 0
    for d in enumerate_Tpj(shape, 1):
        ls = left_cosets(d)
        total += len(ls)
        for L in ls:
            allkeys.add(_key(*L.to_internal(2)))
    nb = {(_key(*L.to_internal(2))) for L in enumerate_neighbors(shape)}
    assert allkeys == nb and total == len(nb) == 6
    # the identity class consists of the standard lattice alone
    dc0 = LocalDoubleCoset(shape, 0, 0, (0,))
    only = left_cosets(dc0)
    assert len(only) == 1
    # a class given with a list mu is the same class
    assert left_cosets(LocalDoubleCoset(shape, 0, 0, [0])) == only
    assert _key(*only[0].to_internal(2)) == _key(*standard_internal(shape))


def test_scale_limit():
    with pytest.raises(ScaleLimit):
        enumerate_neighbors(LocalShape(3, 1, 1), budget=10)


def test_shape_rejects_a_composite_p():
    # Z/4 and Z/6 are not fields: the neighbour step has no lines to list
    for p in (0, 1, 4, 6, 9):
        with pytest.raises(InvalidLevel):
            LocalShape(p, 1, 1)
    with pytest.raises(InvalidInvariant):
        LocalShape(2, -1, 1)
    with pytest.raises(InvalidInvariant):
        LocalShape(3, 0, 0)


def test_neighbor_formula_rejects_bad_input():
    with pytest.raises(InvalidInvariant):
        neighbor_count_formula(1, 1, 0)
    with pytest.raises(InvalidInvariant):
        neighbor_count_formula(2, -1, 1)


@pytest.mark.parametrize("shape,j", [(s, 1) for s in SHAPES] + [(s, 2) for s in J2_SHAPES])
def test_partition_classes_match_cofactor_oracle(shape, j):
    gram = shape.gram_rows()
    base = standard_internal(shape)
    for dc, lattices in coset_partition(shape, j).items():
        for rows, k in lattices:
            assert classify_internal_cofactor(shape.p, gram, *base, rows, k,
                                              (shape.a, shape.b)) == dc
            # index p**j: the elementary divisors of the intersection with
            # the standard lattice
            divs = smith_divisors([list(r) for r in rows])
            assert sum(max(valuation(d, shape.p) - k, 0) for d in divs) == j


def _outcome(fn):
    try:
        return fn()
    except (NotElementary, NotIsometric) as exc:
        return type(exc)


@pytest.mark.parametrize("shape", [LocalShape(2, 1, 1), LocalShape(3, 1, 0),
                                   LocalShape(2, 0, 2), LocalShape(3, 2, 0)])
def test_ball_frames_match_cofactor_oracle(shape):
    # the frames hecke_product builds on intermediate lattices, against every
    # class representative up to weight two
    p, gram = shape.p, shape.gram_rows()
    movs = [representative_lattice(dc) for e in range(3) for dc in enumerate_Tpj(shape, e)]
    for base in (b for part in coset_partition(shape, 1).values() for b in part):
        fr = _outcome(lambda: _frame(p, gram, *base))
        for mov in movs:
            want = _outcome(lambda: classify_internal_cofactor(p, gram, *base, *mov))
            got = fr if isinstance(fr, type) else _outcome(lambda: _classify(fr, *mov))
            assert got == want


def _transvections(shape, word):
    """Product of integral symplectic transvections of the standard lattice,
    acting on columns; word items are (kind, i, j, c) with c = +-1."""
    n, t = shape.n, [1] * shape.a + [shape.p] * shape.b
    g = Mat.identity(2 * n)
    for kind, i, j, c in word:
        e = [[int(r == s) for s in range(2 * n)] for r in range(2 * n)]
        if kind == 0:                    # f_i -> f_i + c e_i
            e[i][n + i] = c
        elif kind == 1:                  # e_i -> e_i + c f_i
            e[n + i][i] = c
        elif i == j:
            continue
        elif kind == 2:                  # e_i -> e_i + c t_i e_j, f_j -> f_j - c t_j f_i
            e[j][i] = c * t[i]
            e[n + i][n + j] = -c * t[j]
        else:                            # f_i -> f_i + c t_i e_j, f_j -> f_j + c t_j e_i
            e[j][n + i] = c * t[i]
            e[i][n + j] = c * t[j]
        g = g @ Mat(e)
    return g


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_classify_pair_invariant_under_transvections(data):
    shape = data.draw(st.sampled_from(SHAPES))
    dc = data.draw(st.sampled_from([d for j in range(3) for d in enumerate_Tpj(shape, j)]))
    word = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, shape.n - 1),
                                        st.integers(0, shape.n - 1), st.sampled_from((-1, 1))),
                              max_size=12))
    L = LocalLattice.from_internal(*representative_lattice(dc), shape.p)
    moved = LocalLattice(_transvections(shape, word) @ L.basis)
    assert classify_pair(shape, moved) == dc


# neighbors_of result sets pinned from the cofactor implementation: for the
# standard lattice of each shape and for its first neighbor (by key), the
# count and the sha256 of the JSON of the sorted keys
NEIGHBOR_PINS = [
    ((2, 1, 0), 6, "8431409efb873f5ec92f0a14c9f7b0d1be1531f601e0f1ae1bb16608b87b3c13",
     6, "c56669cecc84c9c282e77b9d36e1558b66b901dd0d4456882b7c7938e8735512"),
    ((2, 0, 1), 6, "8431409efb873f5ec92f0a14c9f7b0d1be1531f601e0f1ae1bb16608b87b3c13",
     6, "c56669cecc84c9c282e77b9d36e1558b66b901dd0d4456882b7c7938e8735512"),
    ((2, 2, 0), 30, "cd6bb6fc9dfaaed1bd3104b44d9d6c07d11255ec96d8dfac2999ed7e0fde7507",
     30, "b8e2ae5114aa481a768c5194618a28e63442ba9d7a350f11fa42a470b16948e6"),
    ((2, 1, 1), 66, "d0d5b45c9a270c1479f9d182f24cc30eab1e44244b0c6c95a6578c281cd7b343",
     66, "8e151898ae5418775c5156967ab822c25849d798c8ecea311e234935b0e2bcdf"),
    ((2, 0, 2), 30, "cd6bb6fc9dfaaed1bd3104b44d9d6c07d11255ec96d8dfac2999ed7e0fde7507",
     30, "b8e2ae5114aa481a768c5194618a28e63442ba9d7a350f11fa42a470b16948e6"),
    ((3, 1, 0), 12, "6e35232e27c5e938e656ff940f916f544403328f3a66b41e369a59e6a90f589a",
     12, "05dcfd2e2fa4d4904203071ea75bccf5460a5450f29095b16b2722465016822b"),
    ((3, 0, 1), 12, "6e35232e27c5e938e656ff940f916f544403328f3a66b41e369a59e6a90f589a",
     12, "05dcfd2e2fa4d4904203071ea75bccf5460a5450f29095b16b2722465016822b"),
    ((3, 2, 0), 120, "34276bb7829cb53c2f1eeed4e4147759c55d7f29bf4070c452ba88a8bc76e7df",
     120, "e26d01e20145ce92d1b587f1e70d42356c94aa6bf638bb1c2159cf4063c88c01"),
    ((3, 1, 1), 264, "20932b1846da21dadcdda8a172a2830a4752e32584bb6d65c55f88c037b46ace",
     264, "5bd5346e97473f0497f22e8818963be2f36fb43557043044e2a9d15cb4856db0"),
    ((3, 0, 2), 120, "34276bb7829cb53c2f1eeed4e4147759c55d7f29bf4070c452ba88a8bc76e7df",
     120, "e26d01e20145ce92d1b587f1e70d42356c94aa6bf638bb1c2159cf4063c88c01"),
    ((2, 1, 2), 306, "db1dd0a6b138964fbaf6f19a8322c22d64a36d8bf1c74da249d0275c6f810b94",
     306, "6dd814284c983d09c50d959e484f3473a0d7aa0a8e22393b66a62684c579fa84"),
    ((2, 2, 1), 306, "19495276e177dcb7bf4ea9db824a4bccefe007d30a3843a37e10659b0540a0e6",
     306, "be516d718a59a01185f0525a7ae97fd1e4c50690f55d2c4768956e0608dd40dd"),
    ((2, 0, 3), 126, "7dc058a064e74617879a8596b9965662dc925b21113a1fc3d4afba5d089f9782",
     126, "9407d77fbd7a6eab8b700137971925226acd3c4018c7b81abfbe38d75b7ead64"),
    ((5, 1, 0), 30, "77a5718c51ce4f6e5eb7bad048e77f9d0c3579803df1db891bb1e73e87bbd74c",
     30, "a8482bf2d9f388a6f75b911b71fef77e185857503c00413c54a68c245570b9a3"),
    ((5, 0, 1), 30, "77a5718c51ce4f6e5eb7bad048e77f9d0c3579803df1db891bb1e73e87bbd74c",
     30, "a8482bf2d9f388a6f75b911b71fef77e185857503c00413c54a68c245570b9a3"),
]


@pytest.mark.parametrize("pin", NEIGHBOR_PINS, ids=lambda pin: str(pin[0]))
def test_neighbors_of_pinned(pin):
    (p, a, b), count0, sha0, count1, sha1 = pin
    shape = LocalShape(p, a, b)
    found = neighbors_of(*standard_internal(shape), p, shape.gram_rows(), b)
    first = found[min(found)]
    again = neighbors_of(*first, p, shape.gram_rows(), b)
    for got, count, sha in ((found, count0, sha0), (again, count1, sha1)):
        assert len(got) == count
        assert hashlib.sha256(json.dumps(sorted(got)).encode()).hexdigest() == sha


def test_ball_cache_budget_and_bound():
    shape = LocalShape(2, 1, 0)
    coset_partition(shape, 1)
    # the budget is checked before the cache: a cached ball still refuses it
    with pytest.raises(ScaleLimit):
        coset_partition(shape, 1, budget=1)
    with pytest.raises(ScaleLimit):
        left_cosets(enumerate_Tpj(shape, 1)[0], budget=1)
    hits = _ball.cache_info().hits
    coset_partition(shape, 1, budget=10**8)     # the key holds no budget
    assert _ball.cache_info().hits == hits + 1
    assert _ball.cache_info().maxsize is not None


def _in_threads(fn, count=4):
    """The results of fn in count threads, run with a tiny switch interval
    so that they interleave."""
    results = []
    threads = [threading.Thread(target=lambda: results.append(fn())) for _ in range(count)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    return results


def test_ball_fills_once_across_threads():
    _ball.cache_clear()
    shape = LocalShape(2, 1, 1)
    results = _in_threads(lambda: coset_partition(shape, 1))
    assert len(results) == 4 and all(r == results[0] for r in results)
    assert _ball.cache_info().misses == 2       # radius 1 and radius 0, once each


# sha256 of the compact JSON of the sorted items of T(p)T(p) on the five
# J2_SHAPES and of T(p)T(p^2) and T(p^2)T(p) on the four rank-one shapes
PRODUCTS_SHA256 = "d282ff68996387306b9b29874019cebb116257fe840965373bfb18cf64436af7"


def test_products_pinned():
    calls = [(s, 1, 1) for s in J2_SHAPES] + [(s, i, j) for s in SHAPES if s.n == 1
                                              for i, j in ((1, 2), (2, 1))]
    items = [[[s.p, s.a, s.b, i, j],
              sorted([dc.r_minus, dc.r_plus, list(dc.mu), m]
                     for dc, m in hecke_product(s, i, j).items())] for s, i, j in calls]
    digest = hashlib.sha256(json.dumps(items, separators=(",", ":")).encode())
    assert digest.hexdigest() == PRODUCTS_SHA256


def test_product_frames_built_once_per_ball(monkeypatch):
    shape = LocalShape(2, 1, 1)
    _product_frames.cache_clear()
    calls = []

    def counting_frame(*args, **kw):
        calls.append(args)
        return _frame(*args, **kw)

    monkeypatch.setattr(heckelocal, "_frame", counting_frame)
    first = hecke_product(shape, 1, 1)
    assert calls
    calls.clear()
    assert hecke_product(shape, 1, 1) == first
    assert calls == []
    assert _product_frames.cache_info().maxsize <= _ball.cache_info().maxsize
    # the budget is still checked on every call, before the kept frames
    with pytest.raises(ScaleLimit):
        hecke_product(shape, 1, 1, budget=1)


def test_rejected_exponents_raise_on_every_call():
    shape = LocalShape(2, 1, 0)
    size = _class_of.cache_info().currsize
    for _ in range(2):
        with pytest.raises(NotIsometric):
            _class_of(shape, (0, 1), (0, 0))
    assert _class_of.cache_info().currsize == size
    assert _class_of.cache_info().maxsize is not None


def _products_and_classes(shape, reps):
    return (hecke_product(shape, 1, 1),
            [classify_pair(shape, LocalLattice.from_internal(*rep, shape.p)) for rep in reps])


def test_products_and_classes_agree_across_threads():
    shape = LocalShape(2, 1, 1)
    reps = [representative_lattice(dc) for j in range(3) for dc in enumerate_Tpj(shape, j)]
    caches = (_ball, _product_frames, _class_of, _standard_frame)
    for cache in caches:
        cache.cache_clear()
    want = _products_and_classes(shape, reps)
    for cache in caches:
        cache.cache_clear()
    results = _in_threads(lambda: _products_and_classes(shape, reps))
    assert len(results) == 4 and all(r == want for r in results)
