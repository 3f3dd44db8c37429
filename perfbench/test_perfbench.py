"""Cross-checks of the benchmark itself; too slow to repeat in every run.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import FRESH_BLOCK, POOL_BATCH, POOL_WORKERS, PROBE_PARAMS, op_seed  # noqa: E402

from pgoppa.alternant import feasibility_probe  # noqa: E402
from pgoppa.experiments import TrialConfig, run_trials  # noqa: E402
from pgoppa.rng import SplitMix64  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def test_probe_per_call_matches_one_batched_call():
    p, m, r = PROBE_PARAMS
    per_call_rng, batched_rng = SplitMix64(7), SplitMix64(7)
    per_call = sum(feasibility_probe(p, m, r, trials=1, rng=per_call_rng).feasible for _ in range(3000))
    batched = feasibility_probe(p, m, r, trials=3000, rng=batched_rng)
    assert per_call == batched.feasible
    assert per_call_rng.state == batched_rng.state  # same draws, in the same order


def test_pool_successes_equal_serial_run():
    p, m, t, w = FRESH_BLOCK
    cfg = TrialConfig(p, m, t, w, trials=POOL_BATCH, seed=op_seed(1, 0))
    assert run_trials(cfg, workers=POOL_WORKERS).successes == run_trials(cfg, workers=1).successes


def test_benchmark_json_lists_what_the_runs_report():
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    for m in SPEC["per_layer"]:
        assert (m["unit"], m["better"]) == tracing.PER_LAYER[m["name"]]
    code, lines = bench("--workload", "probe", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert any(line.endswith("matches") for line in lines)  # seed 2 has a recorded digest


def test_traced_counts_repeat_exactly():
    counts = ("polyring.is_irreducible.calls", "popov.weak_popov_reduce.calls", "rng.next_u64.calls")
    seen = []
    for _ in range(2):
        code, lines = bench("--workload", "fresh", "--seed", "3", "--seconds", "1", "--trace", "1")
        assert code == 0
        metrics = json.loads(lines[-1])["metrics"]
        assert set(metrics) == set(tracing.PER_LAYER)
        seen.append({n: metrics[n]["value"] for n in counts})
    assert seen[0] == seen[1]
    assert all(v > 0 for v in seen[0].values())


def test_digest_mismatch_fails_the_run(tmp_path, monkeypatch, capsys):
    digests = json.loads(run.DIGESTS.read_text())
    digests["probe"]["2"]["sha256"] = "0" * 64
    fake = tmp_path / "digests.json"
    fake.write_text(json.dumps(digests))
    monkeypatch.setattr(run, "DIGESTS", fake)
    assert run.main(["--workload", "probe", "--seed", "2", "--seconds", "1", "--trace", "0"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["correct"] is False


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "fresh", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


@pytest.mark.parametrize("missing", ["popov.weak_popov_reduce", "rng.next_u64"])
def test_missing_name_is_absent_not_zero(missing):
    # in a child process: install() rewires the package for good
    code = f"""
import sys
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]
import tracing
sites = tracing.SPAN_SITES if {missing!r} in tracing.SPAN_SITES else tracing.COUNT_SITES
sites[{missing!r}] = [("pgoppa.decoder", "no_such_name")]
rec = tracing.Recorder()
absent, absent_sites = tracing.install(rec)
assert absent == [{missing!r}], absent
assert absent_sites == ["pgoppa.decoder.no_such_name"], absent_sites
metrics = tracing.per_layer_metrics(tracing.Stats(rec, [1.0], 1.0, "decoder.decode"), absent)
assert not any(n.startswith({missing!r}) for n in metrics), metrics
assert "decoder.decode.ms" in metrics
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
