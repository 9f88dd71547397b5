"""The acceptance suite: one callable per criterion, shared by the CLI
``check`` subcommand and the pytest acceptance module.

Every function returns {"name", "passed", "details", "seconds"}.  Seeds and
budgets are fixed here so reports are reproducible.
"""

from __future__ import annotations

import random
import time

import numpy as np

from .altlat import (
    admissible_d_values,
    cusp_count,
    d_invariant,
    sample_isotropic,
    standard_lattice,
)
from .errors import IncompatibleLocals
from .exactmat import Mat, factor
from .garrett import (
    CombinedLattice,
    GarrettTriple,
    admissible_triples,
    embed_factor_pair,
    garrett_representative,
    kernel_identity_check,
    orbit_invariants,
    sp_generators_symplectic,
    standard_form,
)
from .heckelocal import (
    LocalDoubleCoset,
    LocalShape,
    _shape_of_diag as _shape_of,
    coset_partition,
    classify_pair,
    enumerate_Tpj,
    enumerate_neighbors,
    global_representative,
    hecke_product,
    LocalLattice,
    neighbor_bounds_ok,
    neighbor_count_formula,
    representative_lattice,
)
from .quadlat import (
    ParamodularChain,
    e8_lattice,
    enumerate_chain_classes,
    pmodular_coords,
    shell_counts,
)
from .thetaser import (
    eisenstein_compare_deg1,
    genus_theta,
    paramodularity_check,
)

SEED = 20240801


def _timed(fn):
    def wrapper(*a, **kw):
        t0 = time.time()
        out = fn(*a, **kw)
        out["seconds"] = round(time.time() - t0, 2)
        return out
    wrapper.__name__ = fn.__name__
    return wrapper


@_timed
def criterion_cusp_counting(samples: int = 10**4):
    """Boundary component counts and stochastic realization of d-values."""
    details = {}
    passed = True
    rng = random.Random(SEED)
    for p in (2, 3):
        L = standard_lattice((1, p))
        c1 = cusp_count(2, 1, {p: 1})
        c2 = cusp_count(2, 2, {p: 1})
        passed &= (c1 == 2 and c2 == 1)
        for u in (1, 2):
            adm = admissible_d_values(2, u, p, p)
            seen = set()
            for _ in range(samples):
                seen.add(d_invariant(L, sample_isotropic(L, u, rng)))
            realized = sorted(seen)
            details[f"p={p},u={u}"] = {"admissible": adm, "realized": realized,
                                       "count": cusp_count(2, u, {p: 1})}
            passed &= (realized == adm)
            passed &= (len(adm) == cusp_count(2, u, {p: 1}))
    return {"name": "cusp counting and stochastic d-values",
            "passed": bool(passed), "details": details}


@_timed
def criterion_neighbor_formula():
    details = {}
    passed = True
    for (p, a, b) in [(2, 1, 0), (3, 1, 0), (2, 1, 1), (2, 0, 1), (3, 0, 1)]:
        got = len(enumerate_neighbors(LocalShape(p, a, b)))
        want = neighbor_count_formula(p, a, b)
        details[f"(p,a,b)=({p},{a},{b})"] = {"enumerated": got, "formula": want}
        passed &= (got == want)
    return {"name": "neighbor counts match the closed formula",
            "passed": bool(passed), "details": details}


@_timed
def criterion_neighbor_bounds():
    """Faithful check of the three stated count bounds.

    The power-of-two clause is genuinely false at mixed shapes: the exact
    count at (1, 1) is 66 (confirmed by the closed formula, by exhaustive
    sublattice enumeration, and by the coset partition) while the stated
    bound is 2**6 = 64; algebraically 6*4^n - 4(4^{n1}+4^{n2}) + 2 < 4^{n+1}
    fails whenever n1, n2 >= 1 and n >= 2.  The failure is reported rather
    than papered over; the other two clauses hold across the sweep.
    """
    bad = []
    for p in (2, 3, 5, 7, 11, 13):
        for n1 in range(0, 7):
            for n2 in range(0, 7 - n1):
                if n1 + n2 < 1 or n1 + n2 > 6:
                    continue
                if not neighbor_bounds_ok(p, n1, n2):
                    bad.append((p, n1, n2, neighbor_count_formula(p, n1, n2)))
    note = ("stated power-of-two clause fails at mixed shapes; the counts "
            "do satisfy the doubled bound 2^(2n+3)")
    doubled_ok = all(neighbor_count_formula(2, n1, n2) < 2 ** (2 * (n1 + n2) + 3)
                     for n1 in range(0, 7) for n2 in range(0, 7 - n1)
                     if 1 <= n1 + n2 <= 6)
    return {"name": "neighbor count upper bounds",
            "passed": not bad,
            "details": {"violations": bad, "note": note,
                        "doubled_p2_bound_holds": doubled_ok}}


@_timed
def criterion_coset_partition():
    details = {}
    passed = True
    for p in (2, 3):
        for (a, b) in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            shape = LocalShape(p, a, b)
            for j in (1, 2):
                parts = coset_partition(shape, j)
                dcs = enumerate_Tpj(shape, j)
                ok = set(parts) == set(dcs)
                # representatives classify back to their own tuples
                for dc in dcs:
                    rows, k = representative_lattice(dc)
                    got = classify_pair(shape, LocalLattice.from_internal(rows, k, p))
                    ok &= (got.r_minus, got.r_plus, got.mu) == \
                          (dc.r_minus, dc.r_plus, dc.mu)
                total = sum(len(v) for v in parts.values())
                details[f"p={p},shape=({a},{b}),j={j}"] = {
                    "classes": len(parts), "lattices": total}
                passed &= ok
    return {"name": "left cosets partition into the enumerated double cosets",
            "passed": bool(passed), "details": details}


@_timed
def criterion_commutativity():
    shape = LocalShape(2, 1, 1)
    p12 = hecke_product(shape, 1, 2)
    p21 = hecke_product(shape, 2, 1)
    eq = p12 == p21
    return {"name": "T(2) T(4) = T(4) T(2) at shape (1,1), p=2",
            "passed": bool(eq),
            "details": {"terms": len(p12),
                        "multiset": sorted((dc.r_minus, dc.mu, m)
                                           for dc, m in p12.items())}}


@_timed
def criterion_coset_growth():
    details = {}
    passed = True
    for p in (2, 3):
        for (a, b) in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            shape = LocalShape(p, a, b)
            n1 = sum(len(v) for v in coset_partition(shape, 1).values())
            n2 = sum(len(v) for v in coset_partition(shape, 2).values())
            details[f"p={p},({a},{b})"] = {"N(p)": n1, "N(p^2)": n2}
            passed &= (n2 <= n1 * n1)
    return {"name": "N(p^j) bounded by N(p)^j for j <= 2",
            "passed": bool(passed), "details": details}


def _garrett_configs():
    return [
        ((1,), (1,)),
        ((1,), (2,)),
        ((1, 1), (1,)),
        ((1, 2), (2,)),
    ]


def _hecke_blocks(comb: CombinedLattice, trip: GarrettTriple):
    """Identity-class block plus all weight-one blocks for the triple."""
    from .garrett import split_divisors
    r = trip.r
    if r == 0:
        return [None]
    t1 = split_divisors(list(comb.T1), r, trip.d)[:r]
    t2 = split_divisors(list(comb.T2), r, trip.d_prime)[:r]
    T = Mat.diagonal(t1)
    Tp = Mat.diagonal(t2)
    out = [global_representative(T, Tp, _minimal_locals(T, Tp))]
    primes = {p for t in t1 + t2 for p, _ in factor(t)}
    for p in sorted(primes):
        base = _minimal_locals(T, Tp)
        for dc in enumerate_Tpj(LocalShape(p, *_shape_of(Tp, p)), 1):
            if (dc.a_target, dc.b_target) == _shape_of(T, p):
                loc = dict(base)
                loc[p] = dc
                try:
                    out.append(global_representative(T, Tp, loc))
                except IncompatibleLocals:
                    pass
    # dedupe
    uniq = []
    for B in out:
        if all(B != C for C in uniq):
            uniq.append(B)
    return uniq


def _minimal_locals(T: Mat, Tp: Mat):
    """Local data forced at primes where the two levels differ in shape."""
    primes = {p for i in range(T.nrows) for M in (T, Tp) for p, _ in factor(M[i, i])}
    out = {}
    for p in primes:
        if _shape_of(T, p) != _shape_of(Tp, p):
            src = LocalShape(p, *_shape_of(Tp, p))
            out[p] = minimal_cross_dc(src, _shape_of(T, p))
    return out


def minimal_cross_dc(shape: LocalShape, target) -> LocalDoubleCoset:
    """The minimal-weight invariant tuple with the given target shape."""
    a, b = shape.a, shape.b
    at, _bt = target
    diff = at - a
    rm = max(0, -diff)
    rp = max(0, diff)
    mu = [1] * rm + [0] * (a - rm) + [0] * rp + [0] * (b - rp)
    return LocalDoubleCoset(shape, rm, rp, tuple(mu))


@_timed
def criterion_garrett_roundtrip(translations: int = 100):
    details = {}
    passed = True
    rng = random.Random(SEED + 7)
    for T1, T2 in _garrett_configs():
        comb = CombinedLattice(T1, T2)
        trips = admissible_triples(comb.m, comb.n, comb.N1, comb.N2,
                                   comb.D1, comb.D2)
        reps = []
        for trip in trips:
            for B in _hecke_blocks(comb, trip):
                rep = garrett_representative(comb, trip, B)
                d, dp, r, cls = orbit_invariants(comb, rep.full)
                ok = (d, dp, r) == (trip.d, trip.d_prime, trip.r)
                if trip.r and B is not None:
                    want = _block_classes(comb, rep)
                    ok &= (cls == want)
                passed &= ok
                reps.append((trip, rep, (d, dp, r, cls)))
        # distinct representatives carry distinct invariants
        seen_inv = [(b[0], b[1], b[2], tuple(sorted(b[3].items())))
                    for _, _, b in reps]
        passed &= len(set(seen_inv)) == len(reps)
        # invariance under the product group on the left and the isotropic
        # stabilizer on the right, distributed over the representatives
        g1s = sp_generators_symplectic(list(T1))
        g2s = sp_generators_symplectic(list(T2))
        g1s += [g.inverse() for g in g1s]
        g2s += [g.inverse() for g in g2s]
        pgens = _p_side_generators(comb)
        per = max(1, translations // max(1, len(reps)))
        done = 0
        for trip, rep, base in reps:
            for t in range(per):
                s1 = Mat.identity(2 * comb.m)
                s2 = Mat.identity(2 * comb.n)
                for _w in range(4):
                    s1 = s1 @ rng.choice(g1s)
                    s2 = s2 @ rng.choice(g2s)
                sig = embed_factor_pair(comb, s1, s2)
                moved = sig @ rep.full
                if t % 3 == 0:
                    moved = moved @ rng.choice(pgens)
                got = orbit_invariants(comb, moved)
                passed &= (got == base)
                done += 1
        details[f"T1={T1},T2={T2}"] = {"triples": len(trips),
                                       "representatives": len(reps),
                                       "translations": done}
    return {"name": "Garrett representatives round-trip their invariants",
            "passed": bool(passed), "details": details}


def _p_side_generators(comb: CombinedLattice):
    """Lattice-preserving elements stabilizing the span of the e-vectors:
    upper unipotent translations and block-diagonal elementary matrices."""
    s = comb.m + comb.n
    T = list(comb.T1) + list(comb.T2)
    out = []
    for i in range(s):
        rows = [[1 if a == b else 0 for b in range(2 * s)] for a in range(2 * s)]
        rows[i][s + i] = 1
        out.append(Mat(rows))
    for i in range(s):
        for j in range(s):
            if i == j:
                continue
            rows = [[1 if a == b else 0 for b in range(2 * s)]
                    for a in range(2 * s)]
            # diag(E, tE^{-1}) with E = I + t_j e_ij stays lattice-preserving
            rows[i][j] = T[j]
            rows[s + j][s + i] = -T[j]
            out.append(Mat(rows))
    return out


def _block_classes(comb: CombinedLattice, rep):
    """Expected local classes of the Hecke block used in a representative."""
    from .heckelocal import classify_rel_rational
    r = rep.triple.r
    Jr = standard_form(r)
    base = Mat.diagonal([1] * r + [rep.T_prime[i, i] for i in range(r)])
    Binv_t = rep.B.inverse().transpose()
    h = Mat.from_blocks([[rep.B, Mat.zeros(r, r)], [Mat.zeros(r, r), Binv_t]])
    mov = Mat.diagonal([1] * r + [rep.T[i, i] for i in range(r)]) @ h.transpose()
    nums = [M[i, i] for i in range(r) for M in (rep.T, rep.T_prime)]
    primes = {p for t in nums + [abs(int(rep.B.det()))] for p, _ in factor(t)}
    out = {}
    for p in sorted(primes):
        cls = classify_rel_rational(Jr, base, mov, p)
        if cls.weight or cls.r_minus or cls.r_plus:
            out[p] = cls
    return out


@_timed
def criterion_kernel_identity(samples: int = 20, tol: float = 1e-10):
    rng = np.random.default_rng(SEED)
    details = {}
    passed = True
    for T1, T2 in _garrett_configs():
        comb = CombinedLattice(T1, T2)
        trips = admissible_triples(comb.m, comb.n, comb.N1, comb.N2,
                                   comb.D1, comb.D2)
        count = 0
        for trip in trips:
            for B in _hecke_blocks(comb, trip):
                rep = garrett_representative(comb, trip, B)
                for _ in range(samples):
                    z = _random_point(rng, comb.m)
                    w = _random_point(rng, comb.n)
                    ok = kernel_identity_check(rep, z, w, tol)
                    passed &= ok
                    count += 1
        details[f"T1={T1},T2={T2}"] = {"checks": count}
    # the closed special determinant at full rank
    comb = CombinedLattice((2,), (2,))
    trip = GarrettTriple(1, 1, 1, 1, 1, 2, 2, 2, 2)
    rep = garrett_representative(comb, trip)
    for _ in range(samples):
        z = _random_point(rng, 1)
        w = _random_point(rng, 1)
        lhs = np.linalg.det(np.array([[float(x) for x in row]
                                      for row in rep.C.rows], dtype=complex)
                            @ np.diag([z[0, 0], w[0, 0]]) + np.eye(2))
        rhs = 1 - 4 * z[0, 0] * w[0, 0]
        passed &= bool(abs(lhs - rhs) < tol)
    return {"name": "pullback kernel identity", "passed": bool(passed),
            "details": details}


def _random_point(rng, size):
    X = rng.uniform(-0.7, 0.7, (size, size))
    X = (X + X.T) / 2
    Y = rng.uniform(-0.2, 0.2, (size, size))
    Y = (Y + Y.T) / 2 + np.eye(size) * rng.uniform(0.8, 1.6)
    return X + 1j * Y


@_timed
def criterion_e8_shells():
    E8 = e8_lattice()
    production = shell_counts(E8, 3)
    oracle = _e8_shells_oracle(3)
    ok = production == oracle == {0: 1, 1: 240, 2: 2160, 3: 6720}
    return {"name": "rank-8 unimodular shell counts against the naive oracle",
            "passed": bool(ok),
            "details": {"production": production, "oracle": oracle}}


def _e8_shells_oracle(bound: int) -> dict[int, int]:
    """Counts in the orthogonal coordinate model: integer or half-integer
    vectors with even coordinate sum; plain nested loops, no reduction."""
    counts = {q: 0 for q in range(bound + 1)}
    limit = 2 * bound
    reach = int(limit ** 0.5) + 1

    def rec_int(pos, vec, norm):
        if norm > limit:
            return
        if pos == 8:
            if sum(vec) % 2 == 0 and norm % 2 == 0:
                counts[norm // 2] += 1
            return
        for v in range(-reach, reach + 1):
            rec_int(pos + 1, vec + [v], norm + v * v)

    def rec_half(pos, vec, norm4):
        # entries are odd integers over 2; norm4 collects 4 * |x|^2
        if norm4 > 4 * limit:
            return
        if pos == 8:
            if sum(vec) % 4 == 0 and norm4 % 8 == 0:
                counts[norm4 // 8] += 1
            return
        v = -2 * reach - 1
        while v <= 2 * reach + 1:
            rec_half(pos + 1, vec + [v], norm4 + v * v)
            v += 2

    rec_int(0, [], 0)
    rec_half(0, [], 0)
    return {q: c for q, c in counts.items() if c}


@_timed
def criterion_eisenstein_deg1(terms: int = 10):
    E8 = e8_lattice()
    classes = enumerate_chain_classes(E8, (1,))
    gt = genus_theta(classes, terms)
    rep = eisenstein_compare_deg1(gt, 4, terms)
    ok = rep["normalization"] == 240 and not rep["mismatches"]
    return {"name": "degree-1 genus series matches the divisor-sum series",
            "passed": bool(ok), "details": rep}


@_timed
def criterion_paramodularity(tol: float = 1e-8, tail_tol: float = 1e-10):
    E8 = e8_lattice()
    K = pmodular_coords(E8, 2)[0]
    chain = ParamodularChain(E8, (Mat.identity(8), K), (1, 2))
    rep = paramodularity_check(chain, tol=tol, tail_tol=tail_tol,
                               coefficient_bound=5)
    summary = {
        "translations_exact": rep["translations"]["exact"],
        "flip_defects": [f["defect"] for f in rep["flip"]],
        "tails": [f["tails"] for f in rep["flip"]],
    }
    return {"name": "chain theta is paramodular of weight 4",
            "passed": bool(rep["ok"]), "details": summary}


@_timed
def criterion_orbit_stabilizer():
    E8 = e8_lattice()
    coords = pmodular_coords(E8, 2)
    classes = enumerate_chain_classes(E8, (1, 2))
    total = sum(696729600 // c.stabilizer_order for c in classes)
    # frozen regression values from the first computed run
    frozen = {"sublattices": 270, "orbit_count": 1, "stabilizer": 2580480}
    got = {"sublattices": len(coords), "orbit_count": len(classes),
           "stabilizer": classes[0].stabilizer_order if classes else 0}
    ok = (total == len(coords)) and got == frozen
    return {"name": "orbit-stabilizer bookkeeping for modular sublattices",
            "passed": bool(ok),
            "details": {"identity_sum": total, **got}}


ALL = [
    criterion_cusp_counting,
    criterion_neighbor_formula,
    criterion_neighbor_bounds,
    criterion_coset_partition,
    criterion_commutativity,
    criterion_coset_growth,
    criterion_garrett_roundtrip,
    criterion_kernel_identity,
    criterion_e8_shells,
    criterion_eisenstein_deg1,
    criterion_paramodularity,
    criterion_orbit_stabilizer,
]

# fast smoke subset; the bound suite is deliberately absent because its
# power-of-two clause is a documented failure of the stated inequality
QUICK = [
    criterion_cusp_counting,
    criterion_neighbor_formula,
    criterion_garrett_roundtrip,
    criterion_kernel_identity,
    criterion_e8_shells,
    criterion_eisenstein_deg1,
]


def run_suite(quick: bool = False, threads: int = 1) -> dict:
    todo = QUICK if quick else ALL
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda fn: fn(), todo))
    else:
        results = [fn() for fn in todo]
    return {
        "seed": SEED,
        "quick": quick,
        "threads": threads,
        "results": results,
        "passed": all(r["passed"] for r in results),
    }
