"""One benchmark process: set up a workload, time its operations, check them.

Started by run.py in a fresh interpreter; prints one JSON object as its last
line of standard output.  Usage:

    python3 perfbench/worker.py --workload fixed --seed 1 --ops 140 \
        --mode measure --trace 0 --t0-ns <time.monotonic_ns() at launch>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402


def host_ms(samples: int = 3) -> float:
    return sorted(calibrate.sample_ms() for _ in range(samples))[samples // 2]


def outcome_digest(items: list) -> str:
    return hashlib.sha256(json.dumps(items, separators=(",", ":")).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), default="measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0-ns", type=int, default=None, help="launch time on the monotonic clock")
    ap.add_argument("--spans-out", default=None, help="gzip JSON file for the recorded spans")
    args = ap.parse_args(argv)
    t0 = args.t0_ns if args.t0_ns is not None else time.monotonic_ns()
    cal_ns = time.monotonic_ns()
    host_start = host_ms()
    cal_ns = time.monotonic_ns() - cal_ns

    import numpy
    from pgoppa import alternant, decoder, experiments, goppa, rng

    pg = SimpleNamespace(alternant=alternant, decoder=decoder, experiments=experiments, goppa=goppa, rng=rng)
    rec = None
    absent_names, absent_sites = [], []
    if args.trace:
        rec = tracing.Recorder()
        absent_names, absent_sites = tracing.install(rec)

    wl = WORKLOADS[args.workload](pg, args.seed, args.ops)
    wl.setup()
    setup_s = (time.monotonic_ns() - t0 - cal_ns) / 1e9
    setup_scale = calibrate.REF_MS / ((host_start + host_ms()) / 2)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_scale": setup_scale}))
        return 0

    results, lat_ns, raised, host = [], [], [], []
    start = time.perf_counter_ns()
    for i in range(args.ops):
        if i % wl.cal_every == 0:
            host.append(calibrate.sample_ms())
        if rec is not None:
            rec.op = i
        a = time.perf_counter_ns()
        try:
            results.append(wl.run_op(i))
        except Exception:  # an operation that raises is counted as failed
            traceback.print_exc()
            results.append(None)
            raised.append(i)
        lat_ns.append(time.perf_counter_ns() - a)
    wall_ns = time.perf_counter_ns() - start
    if rec is not None:
        rec.op = None
        rec.stop()
    host.append(calibrate.sample_ms())
    every = wl.cal_every
    if wl.workers > 1:
        # the workers load both cores, so the loop would count their own
        # contention as the host's: operations spread over them stay unscaled
        scale = [1.0] * args.ops
    else:
        # each operation is scaled by the loop samples taken before and after it
        scale = [2 * calibrate.REF_MS / (host[i // every] + host[i // every + 1]) for i in range(args.ops)]

    # correctness, outside the timed phase
    failed = set(raised)
    successes, items = [], []
    for i, result in enumerate(results):
        if i in failed:
            successes.append(0)
            items.append(None)
            continue
        try:
            ok, item = wl.outcome(i, result)
        except CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            failed.add(i)
            ok, item = 0, None
        successes.append(ok)
        items.append(item)
    recheck_error, extra = None, []
    try:
        extra = wl.recheck(successes)
    except CheckError as exc:
        recheck_error = str(exc)
        print(f"check failed: {recheck_error}", file=sys.stderr)

    out = {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "ops": args.ops,
        "trials": args.ops * wl.trials_per_op,
        "successes": sum(successes),
        "failed": len(failed),
        "recheck_error": recheck_error,
        "wall_s": wall_ns / 1e9,
        "lat_ms": [ns / 1e6 for ns in lat_ns],
        "scale": scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": {"ops": min(wl.digest_ops, args.ops), "sha256": outcome_digest(items[: wl.digest_ops] + extra)},
        "numpy": numpy.__version__,
    }
    if rec is not None:
        stats = tracing.Stats(rec, scale, setup_scale, wl.entry)
        out["per_layer"] = tracing.per_layer_metrics(stats, absent_names)
        out["absent_names"] = absent_names
        out["absent_sites"] = absent_sites
        out["spans"] = len(rec.spans)
        if args.spans_out:
            rec.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
