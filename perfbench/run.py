"""pgoppa benchmark: one workload, run in fresh interpreters, checked and timed.

    python3 perfbench/run.py --workload fresh --seed 1 --seconds 15 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced process, its span coverage, and the tracing
overhead against an untraced process on the same inputs.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The exit status is nonzero when an operation fails, an output
check fails, or the outcome digest recorded for this seed does not match.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, op_count  # noqa: E402

SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0  # every run ends within 180 s
DIGESTS = HERE / "digests.json"
SPANS_DIR = ROOT / ".perfbench"


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "commit": commit or "unknown",
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "max_workers_env": os.environ.get("PGOPPA_MAX_WORKERS"),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def run_worker(args: argparse.Namespace, ops: int, mode: str, trace: int, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--ops", str(ops),
        "--mode", mode, "--trace", str(trace),
    ]
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(SPANS_DIR / f"spans-{args.workload}-{args.seed}.json.gz")]
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_digest(workload: str, seed: int, ops: int) -> str | None:
    """The recorded outcome digest for (workload, seed) over `ops` operations."""
    with open(DIGESTS) as fh:
        entry = json.load(fh).get(workload, {}).get(str(seed))
    return entry["sha256"] if entry and entry["ops"] == ops else None


def scaled_ms(res: dict) -> list[float]:
    """Operation latencies in reference-host ms (see calibrate.py)."""
    return [ms * s for ms, s in zip(res["lat_ms"], res["scale"])]


def timings(wl, res: dict, lat_ms: list[float], setups: list[float]) -> dict:
    lat = [ms / wl.trials_per_op for ms in lat_ms]  # per trial; pool times batches
    return {
        "trials_per_s": res["trials"] / (sum(lat_ms) / 1e3),
        "op_ms_p50": statistics.median(lat),
        "op_ms_p90": statistics.quantiles(lat, n=10)[8],
        "setup_s": statistics.median(setups),
    }


def end_to_end(wl, res: dict, setups: list[dict]) -> tuple[dict, dict]:
    """(metrics in reference-host time, the same timings as measured on the wall)."""
    scaled = timings(wl, res, scaled_ms(res), [s["setup_s"] * s["setup_scale"] for s in setups])
    wall = timings(wl, res, res["lat_ms"], [s["setup_s"] for s in setups])
    wall["trials_per_s"] = res["trials"] / res["wall_s"]
    wall["host_slowdown"] = statistics.median(1 / s for s in res["scale"])
    units = {"trials_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "setup_s": "s"}
    metrics = {n: {"value": v, "unit": units[n]} for n, v in scaled.items()}
    metrics["success_ratio"] = {"value": res["successes"] / res["trials"], "unit": "ratio"}
    metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
    return metrics, wall


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pgoppa" / "__init__.py").is_file():
        print(f"perfbench: no pgoppa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    n_ops = op_count(wl, args.seconds)
    env = environment(args.seed)
    if args.trace:
        # the same inputs untraced, then traced: half the operations each
        ops = max(wl.digest_ops, n_ops // 2)
        plain = run_worker(args, ops, "measure", 0, deadline)
        res = run_worker(args, ops, "measure", 1, deadline)
        metrics = res["per_layer"]
        overhead = sum(scaled_ms(res)) / sum(scaled_ms(plain))
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        wall = {"overhead_ratio": res["wall_s"] / plain["wall_s"]}
        checked = [plain, res]
    else:
        ops = n_ops
        setups = [run_worker(args, ops, "setup", 0, deadline) for _ in range(SETUP_REPEATS - 1)]
        res = run_worker(args, ops, "measure", 0, deadline)
        setups.append(res)
        metrics, wall = end_to_end(wl, res, setups)
        checked = [res]

    env["loadavg_end"] = os.getloadavg()
    env["numpy"] = res["numpy"]
    env["workers"] = wl.workers
    attempted = res["ops"]
    failed = max(r["failed"] for r in checked)
    problems = [r["recheck_error"] for r in checked if r["recheck_error"]]
    want = expected_digest(args.workload, args.seed, res["digest"]["ops"])
    for r in checked:
        if want is not None and r["digest"]["sha256"] != want:
            problems.append(f"outcome digest {r['digest']['sha256'][:12]} != recorded {want[:12]}")
    correct = failed == 0 and not problems

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} ops={attempted} trials={res['trials']}")
    print("env " + json.dumps(env))
    print(f"digest {res['digest']['sha256'][:16]} over {res['digest']['ops']} ops: "
          + ("no recorded digest for this seed" if want is None else "matches" if not problems else "MISMATCH"))
    print(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    for problem in problems:
        print(f"FAILED: {problem}")
    print("wall " + json.dumps(wall))
    if args.trace:
        print(f"spans {res['spans']}; absent names {res['absent_names']}; absent sites {res['absent_sites']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
