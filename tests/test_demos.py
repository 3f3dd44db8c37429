"""Demo tests: every demo script runs to completion against the source tree,
and every demo that prints no timings prints exactly its recorded output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's standard output.  A change to the package that
# changes no behaviour leaves these bytes alone; 05 prints wall time, so
# only its exit status is checked.
OUTPUT_SHA256 = {
    "01_fields_and_polynomials.py": "5849cd4cbf06aa16212a65819f692f67e91e80132f3e9794d9b5f5adab2b29dc",
    "02_goppa_codes_and_syndromes.py": "0af998ad9eaf97002a87e20fda0cb5709b8cb84eeacc7a71e86881561402791f",
    "03_weak_popov_reduction.py": "29b3b1fe60589351579722e4710bbcec5865dbf056c84066732851a24bf30928",
    "04_decoding_walkthrough.py": "ffba3c2285593cfa106fa613d9173acdfeeea3cdb6767d4d5b3b128e91149829",
    "06_alternant_feasibility.py": "eb83abbff013a68fa12b98498d08dc5877f2c5aec1626230d514d0053b4425d8",
}
TIMED = {"05_success_rate_experiment.py"}


def test_every_untimed_demo_is_pinned():
    assert sorted(OUTPUT_SHA256) == sorted(d.name for d in DEMOS if d.name not in TIMED)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:].decode(errors="replace")
    if demo.name not in TIMED:
        assert hashlib.sha256(proc.stdout).hexdigest() == OUTPUT_SHA256[demo.name]
