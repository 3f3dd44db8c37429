"""Record the outcome digests that run.py checks, for the given seeds.

    python3 perfbench/record_digests.py --seeds 1,2

Run it only on a commit whose behaviour is the reference: from then on a
run of a recorded (workload, seed) whose outcomes differ exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from sweep import parse_seeds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2")
    args = ap.parse_args(argv)
    path = HERE / "digests.json"
    digests = json.loads(path.read_text())
    for name, wl in WORKLOADS.items():
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
                   "--seed", str(seed), "--ops", str(wl.digest_ops)]
            out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if res["failed"] or res["recheck_error"]:
                raise SystemExit(f"{name} seed {seed}: outputs failed their checks, nothing recorded")
            digests.setdefault(name, {})[str(seed)] = res["digest"]
            print(name, seed, res["digest"])
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
