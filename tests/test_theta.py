import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from paramodular.errors import NotApplicable, NotInHalfSpace
from paramodular.exactmat import Mat
from paramodular.quadlat import (
    ChainClass,
    ParamodularChain,
    QuadLattice,
    constant_chain,
    shell_counts,
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
    theta1_value,
    theta_coefficients,
    theta_coefficients_tuple,
    theta_eval,
    translation_invariance_report,
)


def test_divisor_sigma3():
    assert [divisor_sigma3(n) for n in (1, 2, 3, 4)] == [1, 9, 28, 73]


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
