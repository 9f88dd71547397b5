"""The four workloads: their fixed inputs, their rounds of operations, and
the check of every operation.

A workload object is built once per process; building it is the set-up that
``setup_s`` times.  ``round(i)`` returns the i-th round: a fixed sequence of
operations whose random inputs come from the seed and the round index, so
every round has the same make-up and the same seed gives the same inputs.
Each operation's ``run`` is the only timed code; its ``check`` runs after the
timer stops and compares the result with ``oracles`` or with a property the
result must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import oracles as orc
from paramodular.acceptance import (
    _garrett_configs,
    _minimal_locals,
    _p_side_generators,
    _shape_of,
)
from paramodular.altlat import (
    cusp_count,
    cusp_representative,
    admissible_d_values,
    d_invariant,
    level_and_det,
    sample_isotropic,
    standard_lattice,
)
from paramodular.cli import main as cli_main
from paramodular.exactmat import Mat
from paramodular.garrett import (
    CombinedLattice,
    admissible_triples,
    embed_factor_pair,
    garrett_representative,
    kernel_identity_check,
    orbit_invariants,
    sp_generators_symplectic,
    split_divisors,
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
    neighbor_count_formula,
    representative_lattice,
    representative_matrix,
)
from paramodular.errors import IncompatibleLocals, NotPositiveDefinite
from paramodular.quadlat import (
    ParamodularChain,
    QuadLattice,
    aut_order,
    e8_lattice,
    enumerate_chain_classes,
    isometry_test,
    pmodular_coords,
    shell_counts,
    short_vectors,
)
from paramodular.thetaser import (
    chain2_eval,
    default_flip_points,
    flip_image,
    genus_theta,
    inversion_check,
    theta_coefficients,
)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    # result counts reported by the traced run, {metric name: count}
    counts: Callable[[Any], dict] = field(default=lambda res: {})
    # for the documented short-vector fault only: given (result, exception)
    # of a failed operation, whether it failed in the documented way
    known_fault: Callable[[Any, Exception | None], bool] | None = None


def _rng(seed: int, name: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{name}:{index}")


def _run_cli(tr, argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tr.call("cli.main", cli_main, argv)
    return code, json.loads(buf.getvalue())


def _cli_result(out, want) -> bool:
    code, report = out
    return code == 0 and report["result"] == json.loads(json.dumps(want))


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def interleave(groups: list[list[Op]], heavy: list[Op]) -> list[Op]:
    """Spread the light groups evenly through the round, between the heavy
    operations, keeping the order within each list.  The percentiles then
    sample the whole round rather than the second it would take to run the
    light operations back to back."""
    light = sorted((k / len(g), i, op) for i, g in enumerate(groups)
                   for k, op in enumerate(g))
    slots = len(heavy) + 1
    out: list[Op] = []
    for t in range(slots):
        out.extend(op for _, _, op in light[t * len(light) // slots:
                                            (t + 1) * len(light) // slots])
        if t < len(heavy):
            out.append(heavy[t])
    return out


# ---------------------------------------------------------------------------
# hecke-local: neighbors, left cosets, partitions, products, classification.
# ---------------------------------------------------------------------------

HECKE_SHAPES = [LocalShape(p, a, b) for p in (2, 3)
                for (a, b) in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
# Shapes whose T(p^2) partition is a round operation.  p = 3 with n = 2 at
# j = 2 takes minutes; (2, 0) and (0, 2) at p = 2 are left out so that a
# round stays near three and a half seconds, which puts four or more rounds
# in a run.
HECKE_J2_SHAPES = [LocalShape(2, 1, 0), LocalShape(2, 0, 1), LocalShape(3, 1, 0),
                   LocalShape(3, 0, 1), LocalShape(2, 1, 1)]
# classify_pair operations per round by rank n of the shape: rank one is the
# light class that holds the median, rank two the class that holds the 90th
# percentile (other operations are under 5% of a round)
CLASSIFY_OPS = {1: 700, 2: 330}


def local_group_element(shape: LocalShape, rng: random.Random, length: int):
    """A random word in elementary integral symplectic transvections of the
    standard lattice of the shape, as a matrix acting on columns."""
    n, p = shape.n, shape.p
    t = [1] * shape.a + [p] * shape.b
    g = _identity(2 * n)
    for _ in range(length):
        c = rng.choice((-1, 1))
        e = _identity(2 * n)
        kind = rng.randrange(4) if n > 1 else rng.randrange(2)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0:                    # f_i -> f_i + c e_i
            e[i][n + i] = c
        elif kind == 1:                  # e_i -> e_i + c f_i
            e[n + i][i] = c
        elif kind == 2:                  # e_i -> e_i + c t_i e_j, f_j -> f_j - c t_j f_i
            e[j][i] = c * t[i]
            e[n + i][n + j] = -c * t[j]
        else:                            # f_i -> f_i + c t_i e_j, f_j -> f_j + c t_j e_i
            e[j][n + i] = c * t[i]
            e[i][n + j] = c * t[j]
        g = orc.matmul(g, e)
    return g


class HeckeLocal:
    name = "hecke-local"

    def __init__(self, seed: int, tr, workdir):
        self.seed = seed
        self.tr = tr
        self.tuples = {(s, j): orc.hecke_tuples(s.a, s.b, j)
                       for s in HECKE_SHAPES for j in (1, 2)}
        # representative lattices of every T(p^j) class, j <= 2, to be moved
        # by random elements of the local group
        self.reps: dict[int, list] = {1: [], 2: []}
        for s in HECKE_SHAPES:
            for j in (1, 2):
                for dc in enumerate_Tpj(s, j):
                    rows, k = representative_lattice(dc)
                    self.reps[s.n].append((s, dc, LocalLattice.from_internal(rows, k, s.p)))

    def round(self, index: int) -> list[Op]:
        rng = _rng(self.seed, self.name, index)
        tr = self.tr
        st: dict = {}
        ops = []

        for s in HECKE_SHAPES:
            def check(res, s=s):
                st[("nb", s)] = len(res)
                return (len(res) == orc.neighbor_count(s.p, s.a, s.b)
                        and len({L.basis for L in res}) == len(res))
            ops.append(Op("enumerate_neighbors",
                          lambda s=s: tr.call("heckelocal.enumerate_neighbors",
                                              enumerate_neighbors, s),
                          check, lambda res: {"heckelocal.lattices": len(res)}))

        for j, shapes in ((1, HECKE_SHAPES), (2, HECKE_J2_SHAPES)):
            for s in shapes:
                def check(res, s=s, j=j):
                    st[("part", s, j)] = res
                    keys = {(dc.r_minus, dc.mu) for dc in res}
                    lats = {(k, tuple(map(tuple, rows)))
                            for cls in res.values() for rows, k in cls}
                    total = sum(len(v) for v in res.values())
                    ok = (keys == self.tuples[(s, j)] and len(lats) == total
                          and all(dc.r_minus == dc.r_plus for dc in res))
                    if j == 1:
                        ok &= total == orc.neighbor_count(s.p, s.a, s.b)
                    return ok
                ops.append(Op("coset_partition",
                              lambda s=s, j=j: tr.call("heckelocal.coset_partition",
                                                       coset_partition, s, j),
                              check,
                              lambda res: {"heckelocal.lattices":
                                           sum(len(v) for v in res.values())}))

        # every class of T(p), and of T(p^2) at rank one; the five T(p^2)
        # classes of (1, 1) at p = 2 would add about four seconds a round
        for s in HECKE_SHAPES:
            for j in (1, 2) if s.n == 1 else (1,):
                for dc in enumerate_Tpj(s, j):
                    def check(res, s=s, j=j, dc=dc):
                        return len(res) == len(st[("part", s, j)][dc])
                    ops.append(Op("left_cosets",
                                  lambda dc=dc: tr.call("heckelocal.left_cosets",
                                                        left_cosets, dc),
                                  check, lambda res: {"heckelocal.lattices": len(res)}))

        for s in HECKE_J2_SHAPES:
            def check(res, s=s):
                # degrees multiply: sum m(dc) |left cosets of dc| = N(p)^2
                deg = 0
                for dc, m in res.items():
                    deg += m * (1 if dc.weight == 0
                                else len(st[("part", s, dc.weight)][dc]))
                return deg == orc.neighbor_count(s.p, s.a, s.b) ** 2
            ops.append(Op("hecke_product",
                          lambda s=s: tr.call("heckelocal.hecke_product",
                                              hecke_product, s, 1, 1),
                          check))
        for s in HECKE_SHAPES:
            if s.n != 1:
                continue
            def keep(res, s=s):
                st[("prod12", s)] = res
                return bool(res)
            ops.append(Op("hecke_product",
                          lambda s=s: tr.call("heckelocal.hecke_product",
                                              hecke_product, s, 1, 2), keep))
            ops.append(Op("hecke_product",
                          lambda s=s: tr.call("heckelocal.hecke_product",
                                              hecke_product, s, 2, 1),
                          lambda res, s=s: res == st[("prod12", s)]))

        classify = {n: [] for n in CLASSIFY_OPS}
        for n, count in CLASSIFY_OPS.items():
            for k in range(count):
                s, dc, L = self.reps[n][k % len(self.reps[n])]
                g = local_group_element(s, rng, 8)
                moved = LocalLattice(Mat(g) @ L.basis)
                classify[n].append(Op(
                    "classify_pair",
                    lambda s=s, moved=moved: tr.call(
                        "heckelocal.classify_pair", classify_pair, s, moved),
                    lambda res, dc=dc: res == dc))

        s211, s311 = LocalShape(2, 1, 1), LocalShape(3, 1, 1)
        ops.append(Op("cli", lambda: _run_cli(tr, ["hecke-reps", "--p", "2",
                                                   "--shape", "1,1", "--j", "1"]),
                      lambda out: _cli_result(out, [
                          {"r_minus": dc.r_minus, "r_plus": dc.r_plus,
                           "mu": list(dc.mu),
                           "matrix": representative_matrix(dc).to_json()}
                          for dc in enumerate_Tpj(s211, 1)])))
        ops.append(Op("cli", lambda: _run_cli(tr, ["neighbors", "--p", "2", "--shape",
                                                   "1,1", "--count-only"]),
                      lambda out: _cli_result(out, {
                          "formula": neighbor_count_formula(2, 1, 1),
                          "enumerated": st[("nb", s211)]})))

        def cosets_payload():
            parts = st[("part", s311, 1)]
            classes = [{"r_minus": dc.r_minus, "r_plus": dc.r_plus,
                        "mu": list(dc.mu), "left_cosets": len(parts[dc])}
                       for dc in sorted(parts, key=lambda d: (d.r_minus, d.mu))]
            return {"classes": classes,
                    "total": sum(len(v) for v in parts.values())}
        ops.append(Op("cli", lambda: _run_cli(tr, ["cosets", "--p", "3", "--shape",
                                                   "1,1", "--j", "1"]),
                      lambda out: _cli_result(out, cosets_payload())))
        return interleave(list(classify.values()), ops)


# ---------------------------------------------------------------------------
# symplectic-garrett: cusps, isotropic submodules, Garrett representatives.
# ---------------------------------------------------------------------------

ALT_LEVELS = [(1, 2), (1, 6), (2, 2), (1, 1, 2), (1, 2, 6), (1, 1, 6)]
ISOTROPIC_OPS = 150
ORBIT_OPS = 60
KERNEL_OPS = 60


def _primes(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0
            and all(p % q for q in range(2, p))]


def admissible_pairs(T) -> list[tuple[int, int]]:
    """(u, d) with d | D, d | N^u and (D/d) | N^(m-u), from the definition."""
    m = len(T)
    N = max(T)
    D = 1
    for t in T:
        D *= t
    return [(u, d) for u in range(m + 1) for d in range(1, D + 1)
            if D % d == 0 and N**u % d == 0 and N ** (m - u) % (D // d) == 0]


def hecke_block_specs(comb: CombinedLattice, trip):
    """(T, T', local data) for the identity-class block and every weight-one
    block of a triple, built as the acceptance suite builds them but returned
    unevaluated, so that ``global_representative`` is timed as an operation;
    None when r = 0."""
    r = trip.r
    if r == 0:
        return [None]
    t1 = split_divisors(list(comb.T1), r, trip.d)[:r]
    t2 = split_divisors(list(comb.T2), r, trip.d_prime)[:r]
    T, Tp = Mat.diagonal(t1), Mat.diagonal(t2)
    base = _minimal_locals(T, Tp)
    specs = [(t1, t2, base)]
    for p in sorted({p for t in t1 + t2 for p in _primes(t)}):
        for dc in enumerate_Tpj(LocalShape(p, *_shape_of(Tp, p)), 1):
            if (dc.a_target, dc.b_target) == _shape_of(T, p):
                specs.append((t1, t2, {**base, p: dc}))
    return specs


def _half_space_point(rng: random.Random, size: int):
    """Symmetric complex matrix with Im Z >= 0.7 I."""
    X = np.array([[rng.uniform(-0.7, 0.7) for _ in range(size)] for _ in range(size)])
    Y = np.array([[rng.uniform(-0.05, 0.05) for _ in range(size)] for _ in range(size)])
    return (X + X.T) / 2 + 1j * ((Y + Y.T) / 2 + np.eye(size) * rng.uniform(0.8, 1.5))


class SymplecticGarrett:
    name = "symplectic-garrett"

    def __init__(self, seed: int, tr, workdir):
        self.seed = seed
        self.tr = tr
        self.alt = []
        for T in ALT_LEVELS:
            L = standard_lattice(T)
            self.alt.append((T, L, admissible_pairs(T)))
        self.garrett = []       # (comb, triple, (T, T', locals) or None)
        self.reps = []          # (comb, triple, representative, g1s, g2s, pgens)
        for T1, T2 in _garrett_configs():
            comb = CombinedLattice(T1, T2)
            g1s = sp_generators_symplectic(list(T1))
            g2s = sp_generators_symplectic(list(T2))
            g1s += [g.inverse() for g in g1s]
            g2s += [g.inverse() for g in g2s]
            pgens = _p_side_generators(comb)
            for trip in admissible_triples(comb.m, comb.n, comb.N1, comb.N2,
                                           comb.D1, comb.D2):
                for spec in hecke_block_specs(comb, trip):
                    B = None
                    if spec is not None:
                        try:
                            B = global_representative(Mat.diagonal(spec[0]),
                                                      Mat.diagonal(spec[1]), spec[2])
                        except IncompatibleLocals:
                            continue
                    self.garrett.append((comb, trip, spec))
                    self.reps.append((comb, trip, garrett_representative(comb, trip, B),
                                      g1s, g2s, pgens))
        self._base_invariants: dict = {}
        self._cli_garrett = None

    def _invariants(self, i):
        if i not in self._base_invariants:
            comb, _, rep = self.reps[i][:3]
            self._base_invariants[i] = orbit_invariants(comb, rep.full)
        return self._base_invariants[i]

    def round(self, index: int) -> list[Op]:
        rng = _rng(self.seed, self.name, index)
        tr = self.tr
        ops = []

        for T, L, pairs in self.alt:
            for u, d in pairs:
                ops.append(Op("cusp_representative",
                              lambda L=L, u=u, d=d: tr.call(
                                  "altlat.cusp_representative",
                                  cusp_representative, L, u, d),
                              lambda res, T=T, L=L, u=u, d=d:
                                  check_cusp(T, L, u, d, res)))

        levels = [(T, L, u) for T, L, _ in self.alt for u in range(1, len(T) + 1)]
        for k in range(ISOTROPIC_OPS):
            T, L, u = levels[k % len(levels)]
            sub_rng = random.Random(rng.getrandbits(64))

            def run(L=L, u=u, sub_rng=sub_rng):
                Z = tr.call("altlat.sample_isotropic", sample_isotropic, L, u, sub_rng)
                return Z, tr.call("altlat.d_invariant", d_invariant, L, Z)
            ops.append(Op("isotropic", run,
                          lambda res, T=T, L=L, u=u: check_isotropic(T, L, u, res)))

        for comb, trip, spec in self.garrett:
            def run(comb=comb, trip=trip, spec=spec):
                B = None
                if spec is not None:
                    B = tr.call("heckelocal.global_representative", global_representative,
                                Mat.diagonal(spec[0]), Mat.diagonal(spec[1]), spec[2])
                return B, tr.call("garrett.garrett_representative",
                                  garrett_representative, comb, trip, B)
            ops.append(Op("garrett_representative", run,
                          lambda res, comb=comb, spec=spec:
                              check_garrett(comb, spec, *res)))

        for k in range(ORBIT_OPS):
            i = k % len(self.reps)
            comb, trip, rep, g1s, g2s, pgens = self.reps[i]
            s1 = Mat.identity(2 * comb.m)
            s2 = Mat.identity(2 * comb.n)
            for _w in range(4):
                s1 = s1 @ rng.choice(g1s)
                s2 = s2 @ rng.choice(g2s)
            moved = embed_factor_pair(comb, s1, s2) @ rep.full
            if rng.random() < 1 / 3:
                moved = moved @ rng.choice(pgens)

            def check(res, i=i, trip=trip):
                return (res[:3] == (trip.d, trip.d_prime, trip.r)
                        and res == self._invariants(i))
            ops.append(Op("orbit_invariants",
                          lambda comb=comb, moved=moved: tr.call(
                              "garrett.orbit_invariants", orbit_invariants, comb, moved),
                          check))

        for k in range(KERNEL_OPS):
            comb, trip, rep = self.reps[k % len(self.reps)][:3]
            z = _half_space_point(rng, comb.m)
            w = _half_space_point(rng, comb.n)
            ops.append(Op("kernel_identity_check",
                          lambda rep=rep, z=z, w=w: tr.call(
                              "garrett.kernel_identity_check",
                              kernel_identity_check, rep, z, w, 1e-10),
                          lambda res: bool(res)))

        ops.append(Op("cli", lambda: _run_cli(tr, ["cusps", "--T", "1,2", "--u", "1"]),
                      lambda out: _cli_result(out, self._cusps_payload((1, 2), 1))))
        ops.append(Op("cli", lambda: _run_cli(tr, [
            "garrett", "--T1", "1,2", "--T2", "2", "--list", "--check-kernel",
            "--samples", "20", "--tol", "1e-10"]),
                      lambda out: _cli_result(out, self._garrett_payload())))
        return ops

    @staticmethod
    def _cusps_payload(T, u):
        L = standard_lattice(T)
        N, D = level_and_det(L)
        ell = {}
        for p in _primes(D):
            e, d = 0, D
            while d % p == 0:
                d //= p
                e += 1
            ell[p] = e
        dvals = admissible_d_values(len(T), u, N, D)
        return {"count": cusp_count(len(T), u, ell), "d_values": dvals,
                "representatives": {str(d): cusp_representative(L, u, d).to_json()
                                    for d in dvals}}

    def _garrett_payload(self):
        if self._cli_garrett is None:
            comb = CombinedLattice((1, 2), (2,))
            trips = admissible_triples(comb.m, comb.n, comb.N1, comb.N2,
                                       comb.D1, comb.D2)
            tri = [{"d": t.d, "d_prime": t.d_prime, "r": t.r} for t in trips]
            self._cli_garrett = {
                "triples": tri,
                "representatives": [
                    {"triple": tt, "C": garrett_representative(comb, t).C.to_json()}
                    for tt, t in zip(tri, trips)],
                "kernel_checks": [{"triple": tt, "passed": True} for tt in tri],
                "kernel_ok": True,
            }
        return self._cli_garrett


def _alt_gram(T) -> list[list[int]]:
    m = len(T)
    g = [[0] * (2 * m) for _ in range(2 * m)]
    for i, t in enumerate(T):
        g[i][m + i] = t
        g[m + i][i] = -t
    return g


def _d_of(rows, gram) -> int:
    """d-invariant from its definition: the product of the elementary
    divisors of the pairing matrix, i.e. the gcd of its maximal minors."""
    return orc.minors_gcd(orc.matmul(rows, gram), len(rows))


def check_cusp(T, L, u, d, M) -> bool:
    m = len(T)
    rows = [list(r) for r in M.rows]
    S = [r[:m] for r in rows[:m]]
    if any(x for r in rows[:m] for x in r[m:]) or any(x for r in rows[m:] for x in r[:m]):
        return False
    if orc.det(S) != 1 or orc.matmul(orc.transpose(S), [r[m:] for r in rows[m:]]) != _identity(m):
        return False
    # the moved isotropic flag: the last u columns of S, in L's coordinates
    transform = [list(r) for r in L.para_basis().transform.rows]
    flag = [[S[i][j] for i in range(m)] + [0] * m for j in range(m - u, m)]
    flag = orc.matmul(flag, transform) if flag else flag
    return not flag or _d_of(flag, _alt_gram(T)) == d


def check_isotropic(T, L, u, res) -> bool:
    Z, d = res
    rows = [list(r) for r in Z.generators.rows]
    gram = _alt_gram(T)
    pair = orc.matmul(orc.matmul(rows, gram), orc.transpose(rows))
    return (len(rows) == u and not any(x for r in pair for x in r)
            and orc.minors_gcd(rows, u) == 1
            and d == _d_of(rows, gram) and (u, d) in admissible_pairs(T))


def check_garrett(comb: CombinedLattice, spec, B, rep) -> bool:
    s = comb.m + comb.n
    full = [list(r) for r in rep.full.rows]
    C = [r[:s] for r in full[s:]]
    if [r[:s] for r in full[:s]] != _identity(s) or any(x for r in full[:s] for x in r[s:]):
        return False
    if [r[s:] for r in full[s:]] != _identity(s) or C != orc.transpose(C):
        return False
    # the representative maps the combined lattice onto itself
    E = [[Fraction(x) for x in r] for r in comb.E.rows]
    act = orc.matmul(orc.matmul(E, orc.transpose(full)), orc.inverse(E))
    if not orc.is_integral(act):
        return False
    if spec is None:
        return B is None
    T, Tp = spec[0], spec[1]
    Bl = [list(r) for r in B.rows]
    M = orc.matmul(orc.matmul(orc.inverse([[int(i == j) * T[i] for j in range(len(T))]
                                           for i in range(len(T))]),
                              orc.transpose(Bl)),
                   [[int(i == j) * Tp[i] for j in range(len(Tp))] for i in range(len(Tp))])
    return orc.is_integral(Bl) and orc.det(Bl) > 0 and orc.is_integral(M)


# ---------------------------------------------------------------------------
# lattice-theta: short vectors, isometries, chains and their theta series.
# ---------------------------------------------------------------------------

# A 2-modular lattice K with 2 E8 < K < E8, in the coordinates of the E8
# Cartan basis; checked in set-up by the chain's own validation.
E8_TWO_MODULAR = [
    [1, 0, 0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 0, 1],
    [0, 0, 1, 1, 0, 0, 1, 0], [0, 0, 0, 2, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 1], [0, 0, 0, 0, 0, 2, 0, 0],
    [0, 0, 0, 0, 0, 0, 2, 0], [0, 0, 0, 0, 0, 0, 0, 2],
]
SMALL_LATTICES = ["A1", "A1A1", "A2", "A1A1A1", "A3", "A1A2", "A1^4", "D4"]
SHELL_BOUNDS = range(1, 11)
# One round fills a run, so the light classes are repeated until the
# percentiles rest on some 700 operations: each small shell count runs six
# times, so that this class holds the median, and the inversion checks, on
# the lattices whose check costs a few milliseconds, hold the 90th percentile.
SHELL_REPEAT = 6
INVERSION_LATTICES = ["A1", "A1A1", "A2", "A1A1A1", "A1^4", "D4"]
INVERSION_OPS = 216
THETA_BOUND = 6


def e8_chain() -> ParamodularChain:
    return ParamodularChain(e8_lattice(), (Mat.identity(8), Mat(E8_TWO_MODULAR)), (1, 2))


class _BoxCounts:
    """Cached oracle shell counts of the reduced root lattices."""

    def __init__(self):
        self._cache: dict = {}

    def __call__(self, name: str, bound: int) -> dict[int, int]:
        key = (name, bound)
        if key not in self._cache:
            if name == "E8":
                self._cache[key] = {q: orc.e8_count(q) for q in range(bound + 1)}
            else:
                self._cache[key] = orc.box_shell_counts(orc.ROOT_GRAMS[name], bound)
        return self._cache[key]


def signed_permutation(n: int, rng: random.Random) -> list[list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)]
            for i in range(n)]


def check_isometry(L: QuadLattice, K: QuadLattice, g) -> bool:
    if g is None:
        return False
    gr = [list(r) for r in g.rows]
    Kg = [list(r) for r in K.gram.rows]
    return orc.matmul(orc.matmul(orc.transpose(gr), Kg), gr) == \
        [list(r) for r in L.gram.rows]


def check_theta_marginals(coeffs: dict, bound: int) -> bool:
    """Each diagonal pair (q1, q2) sums to r_E8(q1) r_K(q2) over b12, and the
    coefficients are symmetric under b12 -> -b12."""
    marg: dict = {}
    for H, c in coeffs.items():
        if c != coeffs.get(((H[0][0], -H[0][1]), (-H[1][0], H[1][1]))):
            return False
        key = (H[0][0] // 2, H[1][1] // 2)
        marg[key] = marg.get(key, 0) + c
    want = {(q1, q2): orc.e8_count(q1) * orc.e8_two_scaled_count(q2)
            for q1 in range(bound + 1) for q2 in range(bound + 1 - q1)}
    return marg == {k: v for k, v in want.items() if v}


class LatticeTheta:
    name = "lattice-theta"

    def __init__(self, seed: int, tr, workdir):
        self.seed = seed
        self.tr = tr
        self.chain = e8_chain()
        self.e8 = self.chain.L1
        self.small = {nm: QuadLattice(Mat(orc.ROOT_GRAMS[nm])) for nm in SMALL_LATTICES}
        # an Im Z = 1/2 point and its flip image, as in the modularity check
        self.flip_z = default_flip_points((1, 2))[0]
        self.flip_w = flip_image((1, 2), self.flip_z)
        self.e8_file = str(workdir / "e8.json")
        self.chain_file = str(workdir / "chain.json")
        self.coeffs_file = str(workdir / "coeffs.json")
        with open(self.e8_file, "w") as fh:
            json.dump({"gram": self.e8.gram.to_json()}, fh)
        with open(self.chain_file, "w") as fh:
            json.dump({"gram1": self.e8.gram.to_json(),
                       "coords": [Mat(E8_TWO_MODULAR).to_json()], "T": [1, 2]}, fh)
        self.box = _BoxCounts()
        self._genus_direct = None

    def _genus_payload(self):
        if self._genus_direct is None:
            gt = genus_theta(enumerate_chain_classes(self.e8, (1,)), 10)
            self._genus_direct = {
                "total_weight": f"{gt.total_weight.numerator}/{gt.total_weight.denominator}",
                "coefficients": [{"H": [list(r) for r in H],
                                  "value": f"{v.numerator}/{v.denominator}"}
                                 for H, v in sorted(gt.averaged.items())]}
        return self._genus_direct

    def round(self, index: int) -> list[Op]:
        rng = _rng(self.seed, self.name, index)
        tr = self.tr
        st: dict = {}
        ops = []
        shells, inversions, small = [], [], []
        vectors = lambda res: {"quadlat.vectors": sum(res.values())}

        for _ in range(SHELL_REPEAT):
            for nm in SMALL_LATTICES:
                for b in SHELL_BOUNDS:
                    shells.append(Op("shell_counts",
                                     lambda L=self.small[nm], b=b: tr.call(
                                         "quadlat.shell_counts", shell_counts, L, b),
                                     lambda res, nm=nm, b=b: res == self.box(nm, b),
                                     vectors))
        for b in range(1, 5):
            shells.append(Op("shell_counts",
                             lambda b=b: tr.call("quadlat.shell_counts",
                                                 shell_counts, self.e8, b),
                             lambda res, b=b: res == self.box("E8", b), vectors))

        for k in range(INVERSION_OPS):
            L = self.small[INVERSION_LATTICES[k % len(INVERSION_LATTICES)]]
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.3))
            inversions.append(Op("inversion_check",
                                 lambda L=L, z=z: tr.call("thetaser.inversion_check",
                                                          inversion_check, L, z),
                                 lambda res: bool(res)))

        for nm in SMALL_LATTICES + ["E8"]:
            L = self.e8 if nm == "E8" else self.small[nm]
            P = Mat(signed_permutation(L.rank, rng))
            K = QuadLattice(P @ L.gram @ P.transpose())
            small.append(Op("isometry_test",
                            lambda L=L, K=K: tr.call("quadlat.isometry_test",
                                                     isometry_test, L, K),
                            lambda g, L=L, K=K: check_isometry(L, K, g)))
        for nm in SMALL_LATTICES:
            small.append(Op("aut_order",
                            lambda L=self.small[nm]: tr.call("quadlat.aut_order",
                                                             aut_order, L),
                            lambda res, nm=nm: res == orc.AUT_ORDERS[nm]))

        ops.append(Op("pmodular_coords",
                      lambda: tr.call("quadlat.pmodular_coords",
                                      pmodular_coords, self.e8, 2),
                      check_two_modular))

        def check_classes(res):
            st["classes"] = res
            return (sum(orc.E8_AUT_ORDER // c.stabilizer_order for c in res)
                    == orc.singular_subspace_count()
                    and all(c.stabilizer_order * c.orbit_size == orc.E8_AUT_ORDER
                            for c in res))
        ops.append(Op("enumerate_chain_classes",
                      lambda: tr.call("quadlat.enumerate_chain_classes",
                                      enumerate_chain_classes, self.e8, (1, 2)),
                      check_classes))

        def check_coeffs(res):
            st["theta"] = res
            return check_theta_marginals(res.coefficients, THETA_BOUND)
        ops.append(Op("theta_coefficients",
                      lambda: tr.call("thetaser.theta_coefficients",
                                      theta_coefficients, self.chain, THETA_BOUND),
                      check_coeffs,
                      lambda res: {"thetaser.coefficient_keys": len(res.coefficients)}))

        def check_genus(gt):
            classes = st["classes"]
            return (gt.total_weight == sum(Fraction(1, c.stabilizer_order) for c in classes)
                    and all(v.denominator == 1 for v in gt.averaged.values())
                    and check_theta_marginals({H: int(v) for H, v in gt.averaged.items()},
                                              THETA_BOUND))
        ops.append(Op("genus_theta",
                      lambda: tr.call("thetaser.genus_theta", genus_theta,
                                      st["classes"], THETA_BOUND),
                      check_genus,
                      lambda res: {"thetaser.coefficient_keys": len(res.averaged)}))

        def keep(res):
            st["at_z"] = res
            return res[1] < 1e-10
        ops.append(Op("chain2_eval",
                      lambda: tr.call("thetaser.chain2_eval", chain2_eval,
                                      self.chain, self.flip_z), keep))
        ops.append(Op("chain2_eval",
                      lambda: tr.call("thetaser.chain2_eval", chain2_eval,
                                      self.chain, self.flip_w),
                      lambda res: check_flip(self.flip_z, st["at_z"], res)))

        def theta_payload():
            coeffs = [{"H": [list(r) for r in H], "count": c}
                      for H, c in sorted(st["theta"].coefficients.items())]
            return {"coefficients": coeffs, "written": self.coeffs_file}

        def check_theta_cli(out):
            with open(self.coeffs_file) as fh:
                written = json.load(fh)
            want = theta_payload()
            return _cli_result(out, want) and written == want["coefficients"]
        ops.append(Op("cli", lambda: _run_cli(tr, [
            "theta", "--chain", self.chain_file, "--trace-bound", str(THETA_BOUND),
            "--out", self.coeffs_file]), check_theta_cli))

        def chains_payload():
            classes = st["classes"]
            return {"classes": [{"coords": [U.to_json() for U in c.representative.coords[1:]],
                                 "stabilizer_order": c.stabilizer_order,
                                 "orbit_size": c.orbit_size} for c in classes],
                    "count": len(classes)}
        ops.append(Op("cli", lambda: _run_cli(tr, ["chains", "--lattice", self.e8_file,
                                                   "--T", "1,2"]),
                      lambda out: _cli_result(out, chains_payload())))
        ops.append(Op("cli", lambda: _run_cli(tr, ["genus", "--lattice", self.e8_file,
                                                   "--T", "1", "--trace-bound", "10"]),
                      lambda out: _cli_result(out, self._genus_payload())))
        return interleave([shells, inversions, small], ops)


def check_two_modular(coords) -> bool:
    """270 distinct K with 2 E8 < K < E8 and K(1/2) even unimodular."""
    e8 = [list(r) for r in e8_lattice().gram.rows]
    seen = set()
    for K in coords:
        rows = [list(r) for r in K.rows]
        seen.add(tuple(map(tuple, rows)))
        # 2 e_i lies in K: solve e_i * 2 = x K with x integral
        if not orc.is_integral(orc.matmul([[2 * int(i == j) for j in range(8)]
                                           for i in range(8)], orc.inverse(rows))):
            return False
        g = orc.matmul(orc.matmul(rows, e8), orc.transpose(rows))
        if any(x % 2 for r in g for x in r) or any(g[i][i] % 4 for i in range(8)):
            return False
        if abs(orc.det([[x // 2 for x in r] for r in g])) != 1:
            return False
    return len(seen) == len(coords) == orc.singular_subspace_count()


def check_flip(Z, at_z, at_w) -> bool:
    """Weight-4 flip: theta(W) det(T Z)^-4 = theta(Z), tails certified."""
    (vz, tz), (vw, tw) = at_z, at_w
    z = np.array([[Z[0][0].to_complex(), Z[0][1].to_complex()],
                  [Z[1][0].to_complex(), Z[1][1].to_complex()]])
    det_tz = np.linalg.det(np.diag([1, 2]) @ z)
    return tz < 1e-10 and tw < 1e-10 and abs(vw * det_tz ** -4 - vz) < 1e-8


# ---------------------------------------------------------------------------
# skewed-bases: the same enumerators on unreduced bases.
# ---------------------------------------------------------------------------

# A Gram from the short-vector fault report: at bound 2 the float enumerator
# returns {0: 1}, while +-(1366, 39, 0) have Q = 2.
FAULT_GRAM = [[6661984, -233340260, -193191218],
              [-233340260, 8172892180, 6766646248],
              [-193191218, 6766646248, 5602362106]]
FAULT_BOUND = 2

# One row per group of operations in a round: (entry point, base lattice,
# bound, elementary steps of the skew, largest |entry| of the skewed Gram,
# band of enumeration volume or None, operations).  Most rows are light:
# small caps keep the isometry searches, whose shell bound is half the
# largest diagonal entry, to milliseconds.  The E8 row with a volume band is
# the heavy class, where the float enumerator's candidate count, not numpy's
# call overhead, sets the cost (about 20 ms a call).  The band, not the cap,
# bounds its cost and memory: among skews of the same size the candidate
# count varies a hundredfold.  Its entries stay an order of magnitude below
# the skews at which wrong counts appear (about 10^5).
SKEWED_OPS = [
    ("shell_counts", "A2", 4, 8, 2000, None, 20),
    ("shell_counts", "A1A1", 4, 8, 2000, None, 20),
    ("shell_counts", "A3", 3, 8, 2000, None, 20),
    ("shell_counts", "A1A2", 3, 8, 2000, None, 20),
    ("shell_counts", "D4", 3, 8, 2000, None, 20),
    ("shell_counts", "A1^4", 3, 8, 2000, None, 20),
    ("short_vectors", "A2", 3, 8, 2000, None, 6),
    ("short_vectors", "A3", 3, 8, 2000, None, 6),
    ("short_vectors", "D4", 2, 8, 2000, None, 6),
    ("short_vectors", "A1^4", 2, 8, 2000, None, 6),
    ("shell_counts", "E8", 2, 8, 200, None, 4),
    ("shell_counts", "E8", 3, 8, 200, None, 4),
    ("short_vectors", "E8", 1, 8, 200, None, 4),
    ("short_vectors", "E8", 2, 8, 200, None, 2),
    ("shell_counts", "E8", 2, 24, 10000, (10**6, 5 * 10**6), 10),
    ("isometry_test", "A2", None, 3, 24, None, 4),
    ("isometry_test", "A3", None, 3, 24, None, 4),
    ("isometry_test", "D4", None, 3, 24, None, 4),
    ("isometry_test", "A1A2", None, 3, 24, None, 4),
    ("isometry_test", "E8", None, 4, 8, None, 2),
    ("aut_order", "A2", None, 3, 24, None, 3),
    ("aut_order", "A3", None, 3, 24, None, 3),
    ("aut_order", "A1A2", None, 3, 24, None, 3),
    ("aut_order", "A1^4", None, 3, 24, None, 3),
    ("aut_order", "D4", None, 3, 24, None, 3),
]


def enumeration_volume(gram, bound: int) -> float:
    """prod (2 sqrt(bound / D_i) + 1) over the pivots D_i of the form
    x^T G x / 2: the candidates a Fincke-Pohst search with the bases' own
    order may visit at its last level.  Exact pivots, float product."""
    n = len(gram)
    A = [[Fraction(x, 2) for x in r] for r in gram]
    volume = 1.0
    for i in range(n):
        volume *= 2 * math.sqrt(bound / A[i][i]) + 1
        for r in range(i + 1, n):
            f = A[r][i] / A[i][i]
            for c in range(i + 1, n):
                A[r][c] -= f * A[i][c]
    return volume


def skew_gram(gram, rng: random.Random, steps: int, cap: int,
              band=None, bound: int = 0) -> list[list[int]]:
    """U G U^T for a random product of elementary unimodular row operations,
    drawn again until no entry exceeds cap in absolute value and, with a
    band, until the enumeration volume at the bound lies in it."""
    n = len(gram)
    while True:
        U = _identity(n)
        for _ in range(steps):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            U[i] = [x + c * y for x, y in zip(U[i], U[j])]
        G = orc.matmul(orc.matmul(U, gram), orc.transpose(U))
        if G == gram or max(abs(x) for r in G for x in r) > cap:
            continue
        if band is None or band[0] <= enumeration_volume(G, bound) <= band[1]:
            return G


def skewed_inputs(seed: int, index: int):
    """The skewed Grams of one round: (entry point, base lattice, bound,
    Gram) in operation order."""
    rng = _rng(seed, SkewedBases.name, index)
    e8 = [list(r) for r in e8_lattice().gram.rows]
    return [(fn, nm, b, skew_gram(e8 if nm == "E8" else orc.ROOT_GRAMS[nm],
                                  rng, steps, cap, band, b))
            for fn, nm, b, steps, cap, band, count in SKEWED_OPS
            for _ in range(count)]


def check_short_vectors(gram, res, want) -> bool:
    if {q: len(v) for q, v in res.items()} != want:
        return False
    for q, vecs in res.items():
        if len(set(vecs)) != len(vecs) or any(orc.norm(gram, v) != q for v in vecs):
            return False
    return True


class SkewedBases:
    name = "skewed-bases"
    # A run is a fixed number of rounds, --seconds / ROUND_S, not as many as
    # fit: the fault operation then fails the same number of times in every
    # run, and a faster program does not report more failures.
    ROUND_S = 0.5

    def __init__(self, seed: int, tr, workdir):
        self.seed = seed
        self.tr = tr
        self.base = {nm: QuadLattice(Mat(g)) for nm, g in orc.ROOT_GRAMS.items()}
        self.base["E8"] = e8_lattice()
        self.fault = QuadLattice(Mat(FAULT_GRAM))
        self.box = _BoxCounts()
        self._fault_counts = None

    def _fault_want(self):
        if self._fault_counts is None:
            self._fault_counts = orc.exact_shell_counts(FAULT_GRAM, FAULT_BOUND)
        return self._fault_counts

    def round(self, index: int) -> list[Op]:
        tr = self.tr
        ops = []
        for fn, nm, b, G in skewed_inputs(self.seed, index):
            K = QuadLattice(Mat(G))
            if fn == "shell_counts":
                ops.append(Op(fn, lambda K=K, b=b: tr.call(
                                  "quadlat.shell_counts", shell_counts, K, b),
                              lambda res, nm=nm, b=b: res == self.box(nm, b),
                              lambda res: {"quadlat.vectors": sum(res.values())}))
            elif fn == "short_vectors":
                ops.append(Op(fn, lambda K=K, b=b: tr.call(
                                  "quadlat.short_vectors", short_vectors, K, b),
                              lambda res, G=G, nm=nm, b=b:
                                  check_short_vectors(G, res, self.box(nm, b)),
                              lambda res: {"quadlat.vectors":
                                           sum(len(v) for v in res.values())}))
            elif fn == "isometry_test":
                L = self.base[nm]
                ops.append(Op(fn, lambda L=L, K=K: tr.call(
                                  "quadlat.isometry_test", isometry_test, L, K),
                              lambda g, L=L, K=K: check_isometry(L, K, g)))
            else:
                ops.append(Op(fn, lambda K=K: tr.call("quadlat.aut_order",
                                                      aut_order, K),
                              lambda res, nm=nm: res == orc.AUT_ORDERS[nm]))
        ops.append(Op("shell_counts",
                      lambda: tr.call("quadlat.shell_counts", shell_counts,
                                      self.fault, FAULT_BOUND),
                      lambda res: res == self._fault_want(),
                      lambda res: {"quadlat.vectors": sum(res.values())},
                      known_fault=lambda res, exc: (res == {0: 1} or isinstance(
                          exc, NotPositiveDefinite))))
        return ops


WORKLOADS = {w.name: w for w in (HeckeLocal, SymplecticGarrett, LatticeTheta, SkewedBases)}
