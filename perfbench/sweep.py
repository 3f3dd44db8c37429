"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 20 --out perfbench/results/NAME.json

Workloads alternate within each seed, and their order rotates from one seed
to the next, so slow drifts of the host fall on every workload alike.  For
each workload and metric it reports the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread (q3 - q1) /
median next to the metric's bound from BENCHMARK.json.  The output file holds
the environment, every run's result object, and the summary.
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


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    ap.add_argument("--workloads", default=None, help="comma-separated; default all in BENCHMARK.json")
    ap.add_argument("--seconds", type=float, default=None, help="default run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="JSON file for runs and summary")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    started = time.time()
    load_start = os.getloadavg()
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    envs = []
    ok = True
    for k, seed in enumerate(seeds):
        for j in range(len(workloads)):
            w = workloads[(j + k) % len(workloads)]
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            t = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
            wall = next((json.loads(ln[5:]) for ln in lines if ln.startswith("wall ")), {})
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            runs[w].append({"seed": seed, "elapsed_s": time.monotonic() - t, "wall": wall, "result": result})
            envs.append(env)
            print(f"{w:6s} seed {seed:3d} {time.monotonic() - t:6.1f} s", flush=True)

    summary: dict[str, dict] = {}
    for w, rs in runs.items():
        values: dict[str, list[float]] = {}
        for r in rs:
            if r["result"]:
                for n, m in r["result"]["metrics"].items():
                    values.setdefault(n, []).append(m["value"])
            for n, v in r["wall"].items():  # as measured on the wall, before host scaling
                values.setdefault("wall." + n, []).append(v)
        summary[w] = {n: summarise(v, bounds.get(n)) for n, v in sorted(values.items())}
    print(f"\n{'workload':8s} {'metric':42s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for w, metrics in summary.items():
        for n, s in metrics.items():
            spread = s.get("spread")
            flag = ""
            if spread is not None and "bound" in s and n != "setup_s":
                flag = "OVER BOUND" if spread > s["bound"] else "over bound/3" if spread > s["bound"] / 3 else ""
            print(f"{w:8s} {n:42s} {s['median']:12.6g} {spread if spread is not None else float('nan'):8.4f} "
                  f"{s.get('bound', float('nan')):6.3f} {flag}")
    if args.out:
        record = {
            "seconds": seconds,
            "trace": args.trace,
            "seeds": seeds,
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "env": envs[0] if envs else None,
            "summary": summary,
            "runs": runs,
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
