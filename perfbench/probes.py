"""Fixed direct calls for the traced run.

Every per-layer metric must be measured in every traced run.  A layer that
the workload itself calls is measured on the workload's calls; any other
layer is measured here on one small fixed input, the same in every run and
every workload.  The exact linear algebra and the strong-approximation lift
are never called directly by a workload, so their probes always run: SNF,
HNF, determinant and inverse at fixed sizes.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracles as orc
from paramodular.altlat import (
    cusp_representative,
    d_invariant,
    sample_isotropic,
    standard_lattice,
)
from paramodular.approx import sl_lift
from paramodular.exactmat import Mat, hermite_normal_form, rational_inverse, smith_normal_form
from paramodular.garrett import (
    CombinedLattice,
    admissible_triples,
    garrett_representative,
    kernel_identity_check,
    orbit_invariants,
)
from paramodular.heckelocal import (
    LocalLattice,
    LocalShape,
    classify_pair,
    coset_partition,
    enumerate_Tpj,
    enumerate_neighbors,
    global_representative,
    hecke_product,
    left_cosets,
    representative_lattice,
)
from paramodular.quadlat import (
    ChainClass,
    QuadLattice,
    aut_order,
    constant_chain,
    e8_lattice,
    enumerate_chain_classes,
    isometry_test,
    pmodular_coords,
    shell_counts,
    short_vectors,
)
from paramodular.thetaser import CZ, chain2_eval, genus_theta, inversion_check, theta_coefficients
from workloads import (
    Op,
    _run_cli,
    e8_chain,
    hecke_block_specs,
    local_group_element,
    signed_permutation,
)

# Span names; each gives the per-layer metric "<name>_s".
LAYER_SPANS = [
    "heckelocal.enumerate_neighbors", "heckelocal.coset_partition",
    "heckelocal.left_cosets", "heckelocal.hecke_product",
    "heckelocal.classify_pair", "heckelocal.global_representative",
    "garrett.garrett_representative", "garrett.orbit_invariants",
    "garrett.kernel_identity_check",
    "altlat.sample_isotropic", "altlat.d_invariant", "altlat.cusp_representative",
    "approx.sl_lift",
    "quadlat.shell_counts", "quadlat.short_vectors", "quadlat.isometry_test",
    "quadlat.aut_order", "quadlat.pmodular_coords", "quadlat.enumerate_chain_classes",
    "thetaser.theta_coefficients", "thetaser.genus_theta",
    "thetaser.inversion_check", "thetaser.chain2_eval",
    "exactmat.smith_normal_form", "exactmat.hermite_normal_form",
    "exactmat.det", "exactmat.rational_inverse",
    "cli.main",
]
# calls of a light probe; heavy probes run once
REPEAT = 10


def _int_matrix(rng: random.Random, rows: int, cols: int) -> Mat:
    return Mat([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])


def _garrett_probe_inputs():
    comb = CombinedLattice((1,), (2,))
    trip = next(t for t in admissible_triples(comb.m, comb.n, comb.N1, comb.N2,
                                               comb.D1, comb.D2) if t.r == 1)
    spec = hecke_block_specs(comb, trip)[-1]
    T, Tp = Mat.diagonal(spec[0]), Mat.diagonal(spec[1])
    B = global_representative(T, Tp, spec[2])
    rep = garrett_representative(comb, trip, B)
    return comb, trip, (T, Tp, spec[2]), B, rep


def probe_ops(tr, covered: set[str]) -> list[Op]:
    """Probe operations for every layer span not in ``covered``."""
    rng = random.Random(0)
    todo = [name for name in LAYER_SPANS if name not in covered]
    ops: list[Op] = []

    def add(name, fn, *args, repeat=REPEAT, counts=None):
        if name in todo:
            for _ in range(repeat):
                ops.append(Op(name.split(".")[1], lambda: tr.call(name, fn, *args),
                              lambda res: True, counts or (lambda res: {})))

    lattices = lambda res: {"heckelocal.lattices": len(res)}
    s210, s211 = LocalShape(2, 1, 0), LocalShape(2, 1, 1)
    add("heckelocal.enumerate_neighbors", enumerate_neighbors, s211, counts=lattices)
    add("heckelocal.coset_partition", coset_partition, s210, 2,
        counts=lambda res: {"heckelocal.lattices": sum(len(v) for v in res.values())})
    add("heckelocal.left_cosets", left_cosets, enumerate_Tpj(s210, 2)[0], counts=lattices)
    add("heckelocal.hecke_product", hecke_product, s210, 1, 1)
    dc = enumerate_Tpj(s211, 1)[-1]
    rep_lattice = LocalLattice.from_internal(*representative_lattice(dc), 2)
    moved = LocalLattice(Mat(local_group_element(s211, rng, 8)) @ rep_lattice.basis)
    add("heckelocal.classify_pair", classify_pair, s211, moved)

    if any(name.startswith(("garrett.", "heckelocal.global")) for name in todo):
        comb, trip, (T, Tp, locs), B, rep = _garrett_probe_inputs()
        add("heckelocal.global_representative", global_representative, T, Tp, locs)
        add("garrett.garrett_representative", garrett_representative, comb, trip, B)
        add("garrett.orbit_invariants", orbit_invariants, comb, rep.full)
        add("garrett.kernel_identity_check", kernel_identity_check, rep,
            [[0.1 + 1.1j]], [[-0.2 + 0.9j]], 1e-10)

    L = standard_lattice((1, 2, 6))
    Z = sample_isotropic(L, 2, random.Random(0))
    add("altlat.sample_isotropic", lambda: sample_isotropic(L, 2, random.Random(0)))
    add("altlat.d_invariant", d_invariant, L, Z)
    add("altlat.cusp_representative", cusp_representative, L, 1, 2)
    targets = {8: Mat([[0, 1, 0], [-1, 0, 0], [0, 0, 1]]),
               27: Mat([[1, 0, 0], [0, 0, -1], [0, 1, 0]]),
               25: Mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])}
    add("approx.sl_lift", sl_lift, targets, 3)

    vectors = lambda res: {"quadlat.vectors": sum(len(v) for v in res.values())}
    e8 = e8_lattice()
    d4 = QuadLattice(Mat(orc.ROOT_GRAMS["D4"]))
    P = Mat(signed_permutation(4, rng))
    add("quadlat.shell_counts", shell_counts, e8, 3,
        counts=lambda res: {"quadlat.vectors": sum(res.values())})
    add("quadlat.short_vectors", short_vectors, e8, 2, counts=vectors)
    add("quadlat.isometry_test", isometry_test, d4, QuadLattice(P @ d4.gram @ P.transpose()))
    add("quadlat.aut_order", aut_order, d4)
    add("quadlat.pmodular_coords", pmodular_coords, e8, 2, repeat=1)
    add("quadlat.enumerate_chain_classes", enumerate_chain_classes, e8, (1,), repeat=1)

    keys = lambda res: {"thetaser.coefficient_keys": len(res.coefficients)}
    chain = e8_chain()
    add("thetaser.theta_coefficients", theta_coefficients, chain, 4, counts=keys)
    add("thetaser.genus_theta", genus_theta,
        [ChainClass(constant_chain(e8, 1), orc.E8_AUT_ORDER, 1)], 4,
        counts=lambda res: {"thetaser.coefficient_keys": len(res.averaged)})
    add("thetaser.inversion_check", inversion_check,
        QuadLattice(Mat(orc.ROOT_GRAMS["A2"])), complex(0.2, 1.1))
    half = CZ(Fraction(1, 2), 0)
    add("thetaser.chain2_eval", chain2_eval, chain,
        [[CZ(0, 2), half], [half, CZ(0, 3)]], repeat=1)

    sizes = random.Random(1)
    add("exactmat.smith_normal_form", smith_normal_form, _int_matrix(sizes, 8, 8))
    add("exactmat.hermite_normal_form", hermite_normal_form, _int_matrix(sizes, 8, 12))
    det_input = _int_matrix(sizes, 10, 10)
    add("exactmat.det", det_input.det)
    inv_input = _int_matrix(sizes, 8, 8)
    while inv_input.det() == 0:
        inv_input = _int_matrix(sizes, 8, 8)
    add("exactmat.rational_inverse", rational_inverse, inv_input)

    if "cli.main" in todo:
        for _ in range(REPEAT):
            ops.append(Op("cli",
                          lambda: _run_cli(tr, ["hecke-reps", "--p", "2", "--shape",
                                                "1,0", "--j", "1"]),
                          lambda res: True))
    return ops
