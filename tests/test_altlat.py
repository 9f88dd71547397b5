import hashlib
import random
from fractions import Fraction

import pytest

from paramodular.acceptance import SEED
from paramodular.altlat import (
    AltLattice,
    IsotropicSubmodule,
    adapt_to_isotropic,
    admissible_d_values,
    cusp_count,
    cusp_matrix_S,
    cusp_representative,
    d_invariant,
    level_and_det,
    orbit_equivalent,
    para_symplectic_basis,
    sample_isotropic,
    sp_generator_matrices,
    standard_lattice,
)
from paramodular.errors import (
    DegenerateForm,
    DimensionMismatch,
    InadmissibleD,
    IntegralityViolation,
    InvalidLevel,
    InvalidRank,
    NotIsotropic,
    NotPrimitive,
)
from paramodular.exactmat import Mat, is_symplectic, pairing_int


def cusp_isotropic_of(L: AltLattice, S: Mat, u: int) -> IsotropicSubmodule:
    """Intersection of the moved flag with the lattice, in L coordinates."""
    m = L.m
    r = m - u
    pb = L.para_basis()
    rows = []
    for j in range(r, m):
        coeff = [S[i, j] for i in range(m)] + [0] * m
        rows.append(list((Mat([coeff]) @ pb.transform).rows[0]))
    return IsotropicSubmodule.from_rows(L, rows)


def test_standard_lattice():
    L = standard_lattice((1,))
    assert L.gram == Mat([[0, 1], [-1, 0]])
    L = standard_lattice((1, 2))
    assert L.gram[0, 2] == 1 and L.gram[1, 3] == 2
    with pytest.raises(InvalidLevel):
        standard_lattice(())
    with pytest.raises(InvalidLevel):
        standard_lattice((0,))


def test_para_basis_examples():
    assert standard_lattice((1, 5)).para_basis().divisors == (1, 5)
    G = Mat([[0, 0, 2, 0], [0, 0, 0, 3], [-2, 0, 0, 0], [0, -3, 0, 0]])
    pb = para_symplectic_basis(AltLattice(G))
    assert pb.divisors == (1, 6)
    assert pb.transform @ G @ pb.transform.transpose() == \
        standard_lattice((1, 6)).gram
    assert AltLattice(Mat([[0, 5], [-5, 0]])).para_basis().divisors == (5,)
    with pytest.raises(DegenerateForm):
        AltLattice(Mat([[0, 1], [1, 0]]))


def test_para_basis_random_conjugates():
    rng = random.Random(4)
    for _ in range(15):
        T = sorted(rng.choice([(1, 2), (1, 6), (2, 2), (1, 1)]))
        L0 = standard_lattice(T)
        U = Mat.identity(4)
        for _ in range(6):
            i, j = rng.sample(range(4), 2)
            E = [[1 if a == b else 0 for b in range(4)] for a in range(4)]
            E[i][j] = rng.randint(-2, 2)
            U = U @ Mat(E)
        G = U @ L0.gram @ U.transpose()
        pb = para_symplectic_basis(AltLattice(G))
        want = standard_lattice(pb.divisors).gram
        assert pb.transform @ G @ pb.transform.transpose() == want
        _, D0 = level_and_det(L0)
        _, D1 = level_and_det(AltLattice(G))
        assert D0 == D1


def test_level_and_det():
    assert level_and_det(standard_lattice((1, 7))) == (7, 7)
    assert level_and_det(standard_lattice((1, 1))) == (1, 1)
    assert level_and_det(standard_lattice((1, 2, 2))) == (2, 4)


def test_adapt_and_d_invariant():
    p = 5
    L = standard_lattice((1, p))
    e1 = IsotropicSubmodule.from_rows(L, [[1, 0, 0, 0]])
    e2 = IsotropicSubmodule.from_rows(L, [[0, 1, 0, 0]])
    mix = IsotropicSubmodule.from_rows(L, [[1, 1, 0, 0]])
    assert d_invariant(L, e1) == 1
    assert d_invariant(L, e2) == p
    assert d_invariant(L, mix) == 1
    both = IsotropicSubmodule.from_rows(L, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert d_invariant(L, both) == p
    zero = IsotropicSubmodule.from_rows(L, [])
    assert zero == IsotropicSubmodule(Mat([]), 0) and d_invariant(L, zero) == 1

    pairs, comp = adapt_to_isotropic(L, e1)
    assert [d for _, _, d in pairs] == [1]
    assert comp.para_basis().divisors == (p,)
    pairs, comp = adapt_to_isotropic(L, e2)
    assert [d for _, _, d in pairs] == [p]
    assert comp.para_basis().divisors == (1,)
    # the split is orthogonal
    def pairing(x, y):
        return pairing_int([x, y], L.gram.rows)[0][1]
    for e, f, d in pairs:
        for row in comp.basis.rows:
            assert pairing(e, row) == 0 and pairing(f, row) == 0
        assert pairing(e, f) == d

    with pytest.raises(NotIsotropic):
        IsotropicSubmodule.from_rows(L, [[0, 0, 1, 0], [1, 0, 0, 0]])
    with pytest.raises(NotPrimitive):
        IsotropicSubmodule.from_rows(L, [[2, 0, 0, 0]])


@pytest.mark.parametrize("rows, error", [
    ([[0, 0, 1, 0], [1, 0, 0, 0]], NotIsotropic),
    ([[2, 0, 0, 0]], NotPrimitive),
    ([[1, 0, 0, 0], [1, 0, 0, 0]], NotPrimitive),
    ([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 1]], NotIsotropic),
    ([[Fraction(1, 2), 0, 0, 0]], IntegralityViolation),
    ([[1, 0, 0]], DimensionMismatch),
])
def test_submodule_checks_agree(rows, error):
    # from_rows, adapt_to_isotropic and d_invariant validate Z the same way
    L = standard_lattice((1, 5))
    with pytest.raises(error):
        IsotropicSubmodule.from_rows(L, rows)
    Z = IsotropicSubmodule(Mat(rows), len(rows))
    with pytest.raises(error):
        adapt_to_isotropic(L, Z)
    with pytest.raises(error):
        d_invariant(L, Z)


def test_orbit_equivalent():
    L = standard_lattice((1, 3))
    z1 = IsotropicSubmodule.from_rows(L, [[1, 0, 0, 0]])
    z2 = IsotropicSubmodule.from_rows(L, [[1, 1, 0, 0]])
    z3 = IsotropicSubmodule.from_rows(L, [[0, 1, 0, 0]])
    assert orbit_equivalent(L, z1, z2)
    assert not orbit_equivalent(L, z1, z3)
    assert orbit_equivalent(L, z1, z1)


def test_admissible_and_counts():
    p = 3
    assert admissible_d_values(2, 1, p, p) == [1, p]
    assert admissible_d_values(2, 2, p, p) == [p]
    assert admissible_d_values(2, 1, 1, 1) == [1]
    assert cusp_count(2, 1, {p: 1}) == 2
    assert cusp_count(2, 2, {p: 1}) == 1
    assert cusp_count(3, 3, {p: 2}) == 1
    assert cusp_count(2, 1, {}) == 1
    with pytest.raises(InvalidRank):
        admissible_d_values(2, 3, p, p)
    with pytest.raises(InvalidRank):
        cusp_count(2, 5, {p: 1})
    with pytest.raises(InvalidLevel):
        admissible_d_values(2, 1, 0, 1)
    with pytest.raises(InvalidLevel):
        admissible_d_values(2, 1, 3, 0)


def test_cusp_representatives():
    for p in (2, 3):
        L = standard_lattice((1, p))
        J = Mat([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
        for (u, d) in [(1, 1), (1, p), (2, p)]:
            gam = cusp_representative(L, u, d)
            assert is_symplectic(gam, J)
            S = cusp_matrix_S(L, u, d)
            assert S.det() == 1
            # congruent to a signed permutation matrix mod p
            nz = [[j for j in range(2) if S[i, j] % p] for i in range(2)]
            assert all(len(r) == 1 for r in nz)
            Z = cusp_isotropic_of(L, S, u)
            assert d_invariant(L, Z) == d
        with pytest.raises(InadmissibleD):
            cusp_representative(L, 1, p * p)


def test_d_invariant_on_orbits():
    rng = random.Random(99)
    for T in [(1, 2), (1, 3), (1, 2, 2)]:
        L = standard_lattice(T)
        gens = sp_generator_matrices(T)
        gens = gens + [g.inverse() for g in gens]
        for g in gens:
            assert g.transpose() @ L.gram @ g == L.gram
        for _ in range(10):
            u = rng.randint(1, len(T))
            Z = sample_isotropic(L, u, rng)
            d0 = d_invariant(L, Z)
            w = Mat.identity(2 * len(T))
            for _ in range(10):
                w = w @ rng.choice(gens)
            moved = IsotropicSubmodule.from_rows(
                L, [list(r) for r in (Z.generators @ w.transpose()).rows])
            assert d_invariant(L, moved) == d0


def test_sampling_realizes_admissible_sets():
    for p in (2, 3):
        L = standard_lattice((1, p))
        rng = random.Random(123)
        for u in (1, 2):
            seen = {d_invariant(L, sample_isotropic(L, u, rng))
                    for _ in range(1500)}
            assert sorted(seen) == admissible_d_values(2, u, p, p)
            assert len(seen) == cusp_count(2, u, {p: 1})


def test_non_squarefree_level_rejected():
    from paramodular.errors import NonSquareFreeLevel
    L = standard_lattice((4,))
    Z = IsotropicSubmodule.from_rows(L, [[1, 0]])
    with pytest.raises(NonSquareFreeLevel):
        d_invariant(L, Z)
    with pytest.raises(NonSquareFreeLevel):
        adapt_to_isotropic(L, Z)


def test_sampling_rank_three():
    # higher-rank forms: realized d-sets still match the admissible lists
    for p, T in [(2, (1, 2, 2)), (3, (1, 3, 3)), (2, (1, 1, 2))]:
        L = standard_lattice(T)
        _, D = level_and_det(L)
        rng = random.Random(77)
        for u in (1, 2, 3):
            seen = {d_invariant(L, sample_isotropic(L, u, rng))
                    for _ in range(1200)}
            adm = admissible_d_values(3, u, p, D)
            assert sorted(seen) == adm, (T, u, seen, adm)
            lp = sum(1 for t in T if t % p == 0)
            assert len(adm) == cusp_count(3, u, {p: lp})


def _sample_digest(levels, draws, seed):
    """sha256 of the (Z.generators, d) sequence that one random.Random(seed)
    stream gives, drawing `draws` submodules per (T, u) in order."""
    rng = random.Random(seed)
    h = hashlib.sha256()
    for T, us in levels:
        L = standard_lattice(T)
        for u in us:
            for _ in range(draws):
                Z = sample_isotropic(L, u, rng)
                h.update(repr((Z.generators.rows, d_invariant(L, Z))).encode())
    return h.hexdigest()


def test_criterion_01_samples_pinned():
    # the levels and the stream of acceptance criterion 01, 2,000 draws each
    levels = [((1, 2), (1, 2)), ((1, 3), (1, 2))]
    assert _sample_digest(levels, 2000, SEED) == \
        "8e583e96f7db6c855523f238c1ab3ae0b40a0497d1d0ef4343e8e204388c68bb"


def test_rank_three_samples_pinned():
    levels = [((1, 2, 2), (1, 2, 3)), ((1, 3, 3), (3,))]
    assert _sample_digest(levels, 300, 77) == \
        "b6c0249d079ecada310bde4021211afe3f4de8418407737de9eb81613007f8bb"
