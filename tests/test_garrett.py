import random
from fractions import Fraction

import numpy as np
import pytest

from paramodular.altlat import IsotropicSubmodule
from paramodular.errors import (
    InadmissibleD,
    IntegralityViolation,
    InvalidInvariant,
    NotContainedInRadical,
    NotInHalfSpace,
    NotStabilizing,
)
from paramodular.exactmat import (
    Mat,
    clear_denominators,
    hnf_rows,
    is_symplectic,
    left_kernel,
    solve_right,
)
from paramodular.garrett import (
    CombinedLattice,
    GarrettTriple,
    IsotropicPair,
    admissible_triples,
    embed_factor_pair,
    garrett_representative,
    kernel_identity_check,
    orbit_invariants,
    project_isotropic,
    sp_generators_symplectic,
    split_divisors,
    split_radical,
)


def _frame_phi(pair: IsotropicPair):
    """The induced map as a function on the first factor, through the frames.

    The first projection splits as (complement part) + (radical part); the
    map kills the radical and sends complement vectors through the stored
    frame matrix.  Returns a function producing rational factor-2 rows.
    """
    r = pair.r
    tau1 = [pair.T[i, i] for i in range(r)]
    tau2 = [pair.T_prime[i, i] for i in range(r)]
    split = Mat([list(x) for x in pair.frame1.rows]
                + [list(x) for x in pair.rad1.rows]).transpose()

    def phi(u):
        coeff = solve_right(split, u)
        if coeff is None:
            raise InvalidInvariant("vector is not in the first projection")
        alpha = coeff[:2 * r]
        # frame coordinates of the image: x-part then y-part
        wx = [alpha[i] for i in range(r)]
        wy = [alpha[r + i] * tau1[i] for i in range(r)]
        img = [x for x, in (pair.phi @ Mat([[x] for x in wx + wy])).rows]
        # back through the second frame: x_i -> g'_i, y_i -> c'_i / tau'_i
        out = [Fraction(0)] * pair.frame2.ncols
        for i in range(r):
            for j in range(pair.frame2.ncols):
                out[j] += img[i] * pair.frame2[r + i, j]
                out[j] += Fraction(img[r + i], tau2[i]) * pair.frame2[i, j]
        return tuple(out)

    return phi


def rebuild_from_pair(comb: CombinedLattice, pair: IsotropicPair) -> Mat:
    """Converse construction: the graph of the induced map over the radicals."""
    X1, X2 = pair.X1, pair.X2
    k1, k2 = X1.nrows, X2.nrows
    if pair.r == 0:
        rows = [list(x) for x in comb.embed(X1, 1).rows] \
             + [list(x) for x in comb.embed(X2, 2).rows]
        return Mat(hnf_rows(rows))
    phi = _frame_phi(pair)
    # graph condition: complement component of w equals phi(u); since the
    # second projection splits off its radical, compare after subtracting
    # radical parts, i.e. phi(u) - w must lie in the span of rad2
    delta = [list(phi(X1.rows[i])) for i in range(k1)]
    eps = [[-x for x in X2.rows[i]] for i in range(k2)]
    radspan = [list(x) for x in pair.rad2.rows]
    K = left_kernel(Mat(clear_denominators(delta + eps + radspan)[0]))
    rows = []
    for coeff in K.rows:
        u = [sum(coeff[i] * X1[i, j] for i in range(k1)) for j in range(2 * comb.m)]
        w = [sum(coeff[k1 + i] * X2[i, j] for i in range(k2)) for j in range(2 * comb.n)]
        full = [0] * (2 * (comb.m + comb.n))
        for c, x in zip(comb.cols1, u):
            full[c] = x
        for c, x in zip(comb.cols2, w):
            full[c] += x
        rows.append(full)
    out = Mat(hnf_rows(rows))
    return out


def test_admissible_triples_level_one():
    trips = admissible_triples(2, 2, 1, 1, 1, 1)
    assert [(t.d, t.d_prime, t.r) for t in trips] == \
        [(1, 1, 0), (1, 1, 1), (1, 1, 2)]


def test_admissible_triples_level_p():
    trips = admissible_triples(1, 1, 2, 2, 2, 2)
    assert [(t.d, t.d_prime, t.r) for t in trips] == [(2, 2, 0), (1, 1, 1)]
    with pytest.raises(InadmissibleD):
        GarrettTriple(1, 1, 1, 2, 0, 2, 2, 2, 2)


def test_split_divisors():
    assert split_divisors([1, 2], 1, 1) == [2, 1]
    assert split_divisors([1, 2], 1, 2) == [1, 2]
    tl = split_divisors([1, 2, 3, 6], 2, 6)
    prod_tail = tl[2] * tl[3]
    assert prod_tail == 6 and tl[0] * tl[1] * tl[2] * tl[3] == 36


def test_projection_and_rebuild():
    comb = CombinedLattice((1,), (1,))
    X = IsotropicSubmodule.from_rows(comb.L, [[1, 0, 0, 1], [0, 1, 1, 0]])
    pair = project_isotropic(comb, X)
    assert pair.r == 1
    assert rebuild_from_pair(comb, pair) == X.generators

    X0 = IsotropicSubmodule.from_rows(comb.L, [list(r) for r in comb.x0_rows().rows])
    pair0 = project_isotropic(comb, X0)
    assert pair0.r == 0
    assert pair0.rad1.nrows == 1 and pair0.rad2.nrows == 1
    assert rebuild_from_pair(comb, pair0) == \
        Mat(hnf_rows([list(r) for r in X0.generators.rows]))


def test_rank_bookkeeping_random():
    rng = random.Random(17)
    comb = CombinedLattice((1, 2), (2,))
    g1s = sp_generators_symplectic([1, 2])
    g2s = sp_generators_symplectic([2])
    g1s += [g.inverse() for g in g1s]
    g2s += [g.inverse() for g in g2s]
    X0 = comb.x0_rows()
    for _ in range(12):
        s1, s2 = Mat.identity(4), Mat.identity(2)
        for _w in range(5):
            s1 = s1 @ rng.choice(g1s)
            s2 = s2 @ rng.choice(g2s)
        sig = embed_factor_pair(comb, s1, s2)
        act = comb.E @ sig.transpose() @ comb.E.inverse()
        X = IsotropicSubmodule.from_rows(comb.L, [list(r) for r in (X0 @ act).rows])
        pair = project_isotropic(comb, X)
        assert pair.rad1.nrows == comb.m - pair.r
        assert pair.rad2.nrows == comb.n - pair.r
        assert rebuild_from_pair(comb, pair) == X.generators


def test_split_radical():
    comb = CombinedLattice((1, 2), (2,))
    L = comb.L1
    Z = IsotropicSubmodule.from_rows(L, [[1, 0, 0, 0]])
    X = Mat(hnf_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]))
    Zr, Xp = split_radical(L, X, Z)
    merged = Mat(hnf_rows([list(r) for r in Zr.rows] + [list(r) for r in Xp.rows]))
    assert merged == X
    # Z = X: trivial complement
    Z2 = IsotropicSubmodule.from_rows(L, [[1, 0, 0, 0]])
    X2 = Mat(hnf_rows([[1, 0, 0, 0]]))
    _, Xp2 = split_radical(L, X2, Z2)
    assert Xp2.nrows == 0
    # Z = 0
    Z0 = IsotropicSubmodule(Mat.zeros(0, 4), 0)
    _, Xp0 = split_radical(L, X2, Z0)
    assert Xp0 == X2
    with pytest.raises(NotContainedInRadical):
        split_radical(L, Mat([[0, 1, 0, 0]]),
                      IsotropicSubmodule.from_rows(L, [[0, 0, 0, 1]]))


def test_representative_r0_identity():
    comb = CombinedLattice((1,), (2,))
    trip = GarrettTriple(1, 1, 1, 2, 0, 1, 2, 1, 2)
    rep = garrett_representative(comb, trip)
    assert rep.full == Mat.identity(4)
    assert orbit_invariants(comb, rep.full)[:3] == (1, 2, 0)


def test_representative_roundtrip_with_block():
    comb = CombinedLattice((2,), (2,))
    trip = GarrettTriple(1, 1, 1, 1, 1, 2, 2, 2, 2)
    rep = garrett_representative(comb, trip, Mat([[3]]))
    assert rep.C == Mat([[0, 6], [6, 0]])
    assert is_symplectic(rep.full, comb.J)
    d, dp, r, cls = orbit_invariants(comb, rep.full)
    assert (d, dp, r) == (1, 1, 1)
    assert list(cls) == [3] and cls[3].mu == (1,)
    from fractions import Fraction
    with pytest.raises(IntegralityViolation):
        garrett_representative(comb, trip, Mat([[Fraction(1, 2)]]))


def test_not_stabilizing():
    from fractions import Fraction as F
    comb = CombinedLattice((1,), (2,))
    g = Mat([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, F(1, 2), 0], [0, 0, 0, 1]])
    with pytest.raises(NotStabilizing):
        orbit_invariants(comb, g)


def test_kernel_identity_special():
    comb = CombinedLattice((2,), (2,))
    trip = GarrettTriple(1, 1, 1, 1, 1, 2, 2, 2, 2)
    rep = garrett_representative(comb, trip)
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = np.array([[complex(rng.uniform(-1, 1), rng.uniform(0.8, 2.0))]])
        w = np.array([[complex(rng.uniform(-1, 1), rng.uniform(0.8, 2.0))]])
        assert kernel_identity_check(rep, z, w, 1e-10)
        Cn = np.array([[float(x) for x in row] for row in rep.C.rows],
                      dtype=complex)
        lhs = np.linalg.det(Cn @ np.diag([z[0, 0], w[0, 0]]) + np.eye(2))
        assert abs(lhs - (1 - 4 * z[0, 0] * w[0, 0])) < 1e-12
    with pytest.raises(NotInHalfSpace):
        kernel_identity_check(rep, np.array([[0.1j]]), np.array([[1j]]))


def test_not_maximal():
    from paramodular.errors import NotMaximal
    comb = CombinedLattice((1,), (1,))
    small = IsotropicSubmodule.from_rows(comb.L, [[1, 0, 0, 0]])
    with pytest.raises(NotMaximal):
        project_isotropic(comb, small)


def test_split_divisors_rejects_d_beyond_the_divisors():
    # d = 4 needs two factors 2, the divisors (1, 2) have one; without the
    # check the split returns [2, 2], whose tail multiplies to 2, not 4
    with pytest.raises(InadmissibleD):
        split_divisors([1, 2], 1, 4)
    with pytest.raises(InadmissibleD):
        split_divisors([1, 2], 1, 3)


@pytest.mark.parametrize("T", [(1, 2), (1, 3)])
def test_rank_two_factors_roundtrip(T):
    # both factors of rank two: representatives with r = 1 < m = n = 2 have a
    # complement frame that is not square, and the frame solve must handle it
    from paramodular.acceptance import _block_classes, _hecke_blocks, _p_side_generators
    comb = CombinedLattice(T, T)
    rng = random.Random(17)
    g1s = sp_generators_symplectic(list(T))
    g1s += [g.inverse() for g in g1s]
    pgens = _p_side_generators(comb)
    seen = []
    for trip in admissible_triples(comb.m, comb.n, comb.N1, comb.N2, comb.D1, comb.D2):
        for B in _hecke_blocks(comb, trip):
            rep = garrett_representative(comb, trip, B)
            inv = orbit_invariants(comb, rep.full)
            assert inv[:3] == (trip.d, trip.d_prime, trip.r)
            if trip.r and B is not None:
                assert inv[3] == _block_classes(comb, rep)
            seen.append((inv[:3], tuple(sorted(inv[3].items()))))
            for _ in range(2):
                s1 = s2 = Mat.identity(4)
                for _w in range(4):
                    s1 = s1 @ rng.choice(g1s)
                    s2 = s2 @ rng.choice(g1s)
                moved = embed_factor_pair(comb, s1, s2) @ rep.full @ rng.choice(pgens)
                assert orbit_invariants(comb, moved) == inv
    assert len(seen) == 10 and len(set(seen)) == 10
    # the default block B = I is no block when T does not divide T'
    with pytest.raises(IntegralityViolation):
        garrett_representative(comb, GarrettTriple(2, 2, 1, T[1], 1, *[T[1]] * 4))
