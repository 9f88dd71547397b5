"""Command line entry point.

Every subcommand prints a single JSON report embedding the configuration it
ran with, so identical invocations produce byte-identical output.  Exit codes:
0 success, 1 check failure, 2 usage error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .altlat import (
    admissible_d_values,
    cusp_count,
    cusp_representative,
    level_and_det,
    standard_lattice,
)
from .errors import ParamodularError, ScaleLimit
from .exactmat import Mat, factor
from .garrett import (
    CombinedLattice,
    admissible_triples,
    garrett_representative,
    kernel_identity_check,
)
from .heckelocal import (
    LocalShape,
    coset_partition,
    enumerate_Tpj,
    enumerate_neighbors,
    neighbor_count_formula,
    representative_matrix,
)
from .quadlat import ParamodularChain, QuadLattice, enumerate_chain_classes
from .thetaser import genus_theta, paramodularity_check, theta_coefficients


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _load_lattice(path: str) -> QuadLattice:
    with open(path) as fh:
        data = json.load(fh)
    return QuadLattice(Mat.from_json(data["gram"]))


def _load_chain(path: str) -> ParamodularChain:
    with open(path) as fh:
        data = json.load(fh)
    L1 = QuadLattice(Mat.from_json(data["gram1"]))
    coords = [Mat.identity(L1.rank)]
    for U in data.get("coords", []):
        coords.append(Mat.from_json(U))
    return ParamodularChain(L1, tuple(coords), tuple(data["T"]))


def _report(args, payload) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    return {"config": config, "result": payload}


def cmd_cusps(args):
    T = _ints(args.T)
    L = standard_lattice(T)
    N, D = level_and_det(L)
    m = len(T)
    ell = dict(factor(D))
    dvals = admissible_d_values(m, args.u, N, D)
    reps = {}
    for dv in dvals:
        reps[str(dv)] = cusp_representative(L, args.u, dv).to_json()
    return {
        "count": cusp_count(m, args.u, ell),
        "d_values": dvals,
        "representatives": reps,
    }


def cmd_hecke_reps(args):
    shape = LocalShape(args.p, *_ints(args.shape))
    out = []
    for dc in enumerate_Tpj(shape, args.j):
        out.append({
            "r_minus": dc.r_minus,
            "r_plus": dc.r_plus,
            "mu": list(dc.mu),
            "matrix": representative_matrix(dc).to_json(),
        })
    return out


def cmd_neighbors(args):
    shape = LocalShape(args.p, *_ints(args.shape))
    formula = neighbor_count_formula(args.p, shape.a, shape.b)
    nb = enumerate_neighbors(shape, args.budget)
    report = {"formula": formula, "enumerated": len(nb)}
    if not args.count_only:
        report["lattices"] = [L.basis.to_json() for L in nb]
    return report


def cmd_cosets(args):
    shape = LocalShape(args.p, *_ints(args.shape))
    parts = coset_partition(shape, args.j, args.budget)
    out = []
    for dc in sorted(parts, key=lambda d: (d.r_minus, d.mu)):
        out.append({
            "r_minus": dc.r_minus,
            "r_plus": dc.r_plus,
            "mu": list(dc.mu),
            "left_cosets": len(parts[dc]),
        })
    return {"classes": out, "total": sum(len(v) for v in parts.values())}


def cmd_garrett(args):
    T1, T2 = _ints(args.T1), _ints(args.T2)
    if args.m is not None and args.m != len(T1):
        raise ParamodularError(f"--m {args.m} does not match --T1 of rank {len(T1)}")
    if args.n is not None and args.n != len(T2):
        raise ParamodularError(f"--n {args.n} does not match --T2 of rank {len(T2)}")
    comb = CombinedLattice(T1, T2)
    trips = admissible_triples(comb.m, comb.n, comb.N1, comb.N2,
                               comb.D1, comb.D2)
    payload = {"triples": [{"d": t.d, "d_prime": t.d_prime, "r": t.r}
                           for t in trips]}
    if args.list:
        reps = []
        for t in trips:
            rep = garrett_representative(comb, t)
            reps.append({
                "triple": {"d": t.d, "d_prime": t.d_prime, "r": t.r},
                "C": rep.C.to_json(),
            })
        payload["representatives"] = reps
    if args.check_kernel:
        import numpy as np
        rng = np.random.default_rng(args.seed)
        checks = []
        for t in trips:
            rep = garrett_representative(comb, t)
            # every sample draws z, then w, whatever the earlier results
            oks = [kernel_identity_check(rep, _half_space_point(rng, comb.m),
                                         _half_space_point(rng, comb.n), args.tol)
                   for _ in range(args.samples)]
            checks.append({"triple": {"d": t.d, "d_prime": t.d_prime,
                                      "r": t.r},
                           "passed": all(oks)})
        payload["kernel_checks"] = checks
        payload["kernel_ok"] = all(c["passed"] for c in checks)
    return payload


def _half_space_point(rng, size):
    import numpy as np
    X = rng.uniform(-0.7, 0.7, (size, size))
    X = (X + X.T) / 2
    Y = np.eye(size) * rng.uniform(0.8, 1.5)
    return X + 1j * Y


def cmd_theta(args):
    chain = _load_chain(args.chain)
    payload = {}
    if args.trace_bound is not None:
        exp_ = theta_coefficients(chain, args.trace_bound, args.budget)
        coeffs = [{"H": [list(row) for row in H], "count": c}
                  for H, c in sorted(exp_.coefficients.items())]
        payload["coefficients"] = coeffs
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(coeffs, fh)
            payload["written"] = args.out
    if args.check_modularity:
        from .thetaser import default_flip_points
        pts = default_flip_points(chain.T)[: args.samples]
        payload["modularity"] = paramodularity_check(chain, tol=args.tol,
                                                     points=pts)
    return payload


def cmd_chains(args):
    L1 = _load_lattice(args.lattice)
    classes = enumerate_chain_classes(L1, tuple(_ints(args.T)), args.budget)
    return {
        "classes": [
            {
                "coords": [U.to_json() for U in c.representative.coords[1:]],
                "stabilizer_order": c.stabilizer_order,
                "orbit_size": c.orbit_size,
            }
            for c in classes
        ],
        "count": len(classes),
    }


def cmd_genus(args):
    L1 = _load_lattice(args.lattice)
    classes = enumerate_chain_classes(L1, tuple(_ints(args.T)), args.budget)
    gt = genus_theta(classes, args.trace_bound)
    return {
        "total_weight": f"{gt.total_weight.numerator}/{gt.total_weight.denominator}",
        "coefficients": [
            {"H": [list(row) for row in H],
             "value": f"{v.numerator}/{v.denominator}"}
            for H, v in sorted(gt.averaged.items())
        ],
    }


def cmd_check(args):
    from .acceptance import run_suite
    report = run_suite(quick=args.quick, threads=args.threads)
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="paramodular",
        description="Symplectic lattice reduction, paramodular Hecke double "
                    "cosets, and theta series of lattice chains.")
    ap.add_argument("--pretty", action="store_true", help="indent the JSON report")
    ap.add_argument("--threads", type=int, default=1)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cusps", help="boundary component counts and representatives")
    p.add_argument("--T", required=True, help="comma separated divisor chain")
    p.add_argument("--u", type=int, required=True)
    p.set_defaults(func=cmd_cusps)

    p = sub.add_parser("hecke-reps", help="local double coset representatives")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--shape", required=True, help="a,b")
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=cmd_hecke_reps)

    p = sub.add_parser("neighbors", help="index-p neighbors of the standard lattice")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--budget", type=int, default=10**7)
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("cosets", help="left coset partition of T(p^j)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**7)
    p.set_defaults(func=cmd_cosets)

    p = sub.add_parser("garrett", help="double coset triples and representatives")
    p.add_argument("--T1", required=True)
    p.add_argument("--T2", required=True)
    p.add_argument("--m", type=int, default=None,
                   help="rank of the first factor; must match --T1")
    p.add_argument("--n", type=int, default=None,
                   help="rank of the second factor; must match --T2")
    p.add_argument("--list", action="store_true")
    p.add_argument("--check-kernel", action="store_true")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=20240801)
    p.set_defaults(func=cmd_garrett)

    p = sub.add_parser("theta", help="chain theta coefficients and modularity")
    p.add_argument("--chain", required=True)
    p.add_argument("--trace-bound", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--check-modularity", action="store_true")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--budget", type=int, default=2 * 10**8)
    p.set_defaults(func=cmd_theta)

    search = ("nodes of each automorphism and stabilizer search; the modular "
              "sublattices keep their own bound of 10^6 points")
    p = sub.add_parser("chains", help="classes of modular lattice chains")
    p.add_argument("--lattice", required=True)
    p.add_argument("--T", required=True)
    p.add_argument("--budget", type=int, default=10**7, help=search)
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("genus", help="genus-averaged theta coefficients")
    p.add_argument("--lattice", required=True)
    p.add_argument("--T", required=True)
    p.add_argument("--trace-bound", type=int, default=6)
    p.add_argument("--budget", type=int, default=10**7, help=search)
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser(
        "check",
        help="run the acceptance suite (the full suite reports one known "
             "failing bound clause; --quick is a fast passing subset)")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_check)

    args = ap.parse_args(argv)
    try:
        payload = args.func(args)
    except ScaleLimit as exc:
        print(json.dumps({"error": "scale-limit", "message": str(exc)}))
        return 3
    except ParamodularError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    report = _report(args, payload)
    text = json.dumps(report, indent=2 if args.pretty else None,
                      sort_keys=True, default=str)
    print(text)
    if args.command == "check" and not payload.get("passed", False):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
