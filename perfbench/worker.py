"""One benchmark process: set up one workload, run whole rounds, report.

Started by ``run.py``; prints one JSON line.  With ``--setup-only`` it stops
once the inputs are built, which is how ``run.py`` samples set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Direct, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_op(tr, op_id, op):
    """Time one operation, then check it: (seconds, ok, error, result,
    exception raised by the operation or None)."""
    tr.begin_op(op_id)
    t0 = time.perf_counter()
    try:
        res = op.run()
        err = exc = None
    except Exception as e:
        res, err, exc = None, traceback.format_exc(limit=3), e
    dt = time.perf_counter() - t0
    tr.end_op()
    if err is None:
        try:
            ok = bool(op.check(res))
        except Exception:
            ok, err = False, traceback.format_exc(limit=3)
    else:
        ok = False
    return dt, ok, err, res, exc


def layer_metrics(tr: Tracer, rounds: int, work_counts: dict, probe_counts: dict,
                  overhead: float) -> dict:
    """Per-layer metrics of a traced run: median self time per call of each
    layer, result counts per round, throughputs and the tracer's own cost.
    A layer the workload calls is measured on the workload; any other layer
    on its probe."""
    from probes import LAYER_SPANS
    work, probe = tr.self_times(probes=False), tr.self_times(probes=True)
    out = {}
    for name in LAYER_SPANS:
        out[f"{name}_s"] = (statistics.median(work.get(name) or probe[name]), "s")

    def total(counts, kinds, name):
        return sum(counts.get(k, {}).get(name, 0) for k in kinds)

    def rate(kinds, name, spans):
        for times, counts in ((work, work_counts), (probe, probe_counts)):
            n = total(counts, kinds, name)
            if n:
                return n / sum(sum(times.get(s, [])) for s in spans)
        raise ValueError(f"no {name} counted")

    out["heckelocal.lattices_per_s"] = (
        rate(["coset_partition"], "heckelocal.lattices",
             ["heckelocal.coset_partition"]), "1/s")
    out["quadlat.vectors_per_s"] = (
        rate(["shell_counts", "short_vectors"], "quadlat.vectors",
             ["quadlat.shell_counts", "quadlat.short_vectors"]), "1/s")
    for name in ("heckelocal.lattices", "quadlat.vectors", "thetaser.coefficient_keys"):
        n = total(work_counts, work_counts, name) / rounds
        out[name] = (n or total(probe_counts, probe_counts, name), "count")
    out["trace.overhead_s"] = (overhead / rounds, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def _add_counts(bucket: dict, op, res):
    kind = bucket.setdefault(op.kind, {})
    for k, v in op.counts(res).items():
        kind[k] = kind.get(k, 0) + v


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    out_dir = Path(args.out_dir)
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tr = Tracer() if args.trace else Direct()
        workload = WORKLOADS[args.workload](args.seed, tr, workdir)
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, tr, workload, setup_s, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, tr, workload, setup_s, out_dir) -> int:
    round_times, op_times, errors = [], [], []
    attempted = failed = unexpected = 0
    work_counts: dict = {}
    kinds_per_round: dict = {}
    # a workload with a known fault runs a fixed number of rounds
    nominal = getattr(workload, "ROUND_S", None)
    fixed_rounds = max(1, round(args.seconds / nominal)) if nominal else None
    start = time.perf_counter()
    index = 0
    while True:
        ops = workload.round(index)
        total = 0.0
        for op in ops:
            dt, ok, err, res, exc = run_op(tr, attempted, op)
            attempted += 1
            total += dt
            op_times.append(dt)
            if not ok:
                failed += 1
                if op.known_fault is None or not op.known_fault(res, exc):
                    unexpected += 1
                    if len(errors) < 5:
                        errors.append(f"{op.kind}: {err or 'wrong result'}")
            if args.trace and ok:
                _add_counts(work_counts, op, res)
            if index == 0:
                kinds_per_round[op.kind] = kinds_per_round.get(op.kind, 0) + 1
        round_times.append(total)
        index += 1
        elapsed = time.perf_counter() - start
        if (index == fixed_rounds if fixed_rounds
                else elapsed + elapsed / index > args.seconds):
            break

    report = {
        "setup_s": setup_s,
        "round_times": round_times,
        "op_times": op_times,
        "ops_per_round": kinds_per_round,
        "attempted": attempted,
        "failed": failed,
        "unexpected_failures": unexpected,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        from probes import probe_ops
        overhead = tr.overhead
        covered = {span[0] for span in tr.spans}
        probe_counts: dict = {}
        for op in probe_ops(tr, covered):
            dt, ok, err, res, _ = run_op(tr, -1, op)
            if err is not None:
                errors.append(f"probe {op.kind}: {err}")
                report["unexpected_failures"] += 1
                continue
            _add_counts(probe_counts, op, res)
        report["layers"] = layer_metrics(tr, len(round_times), work_counts,
                                         probe_counts, overhead)
        tr.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
