"""Harness tests: the success model, sweep rule, trial reproducibility,
worker independence, and the seeded generator's reference vectors."""

import pytest
from hypothesis import given, settings, strategies as st

from pgoppa.errors import ParamError
from pgoppa.experiments import (
    BINARY_BLOCKS,
    CSV_HEADER,
    TABLE_BLOCKS,
    TrialConfig,
    _single_trial,
    binomial_sigma,
    csv_report,
    resolve_workers,
    run_trials,
    success_prob_model,
    sweep_weights,
    table_rows,
)
from pgoppa.rng import SplitMix64, mix64, trial_stream

from oracles import reference_trial


def test_splitmix64_reference_vectors():
    # canonical splitmix64 outputs for seed 1234567
    g = SplitMix64(1234567)
    assert [g.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix64_block_draw_equals_successive_draws():
    # the state passes 2**64 within the first few draws from each seed
    for seed in (0, (1 << 64) - 1, (1 << 64) - 0x9E3779B97F4A7C15, 1234567):
        block, single = SplitMix64(seed), SplitMix64(seed)
        draws = block.next_u64_block(40).tolist()
        assert block.state == seed  # drawing a block does not move the state
        assert draws == [single.next_u64() for _ in range(40)]
        block.advance(40)
        assert block.state == single.state


def test_splitmix64_draw_helpers():
    g = SplitMix64(9)
    vals = [g.randrange(10) for _ in range(1000)]
    assert all(0 <= v < 10 for v in vals)
    assert len(set(vals)) == 10
    sample = SplitMix64(10).sample(range(50), 12)
    assert len(sample) == 12 and len(set(sample)) == 12
    with pytest.raises(ValueError):
        SplitMix64(11).randrange(0)
    with pytest.raises(ValueError):
        SplitMix64(12).sample(range(3), 5)


def test_trial_streams_are_decorrelated():
    a = trial_stream(42, 0)
    b = trial_stream(42, 1)
    outs_a = [a.next_u64() for _ in range(4)]
    outs_b = [b.next_u64() for _ in range(4)]
    assert outs_a != outs_b
    # not shifted copies of one another
    assert outs_a[1:] != outs_b[:-1]
    # regenerating a stream reproduces it
    again = trial_stream(42, 0)
    assert [again.next_u64() for _ in range(4)] == outs_a


def test_success_prob_model_table_values():
    assert success_prob_model(27, 8, 8) == pytest.approx(0.962963, abs=1e-6)
    assert success_prob_model(27, 8, 7) == pytest.approx(0.998628, abs=1e-6)
    assert success_prob_model(25, 12, 12) == pytest.approx(0.960000, abs=1e-6)
    assert success_prob_model(81, 20, 20) == pytest.approx(0.987654, abs=1e-6)
    assert success_prob_model(125, 41, 41) == pytest.approx(0.992000, abs=1e-6)
    # the published table prints 0.997085 for (p=7, m=2, t=w=24), which is
    # 1 - 343**-1, inconsistent with q = 49; the formula value is asserted
    assert success_prob_model(49, 24, 24) == pytest.approx(1 - 1 / 49, abs=1e-9)
    assert success_prob_model(121, 60, 60) == pytest.approx(0.991736, abs=1e-6)
    for q in (9, 27, 25):
        assert success_prob_model(q, 6, 6) == pytest.approx(1 - 1 / q)


def test_sweep_weights_reproduce_table_grouping():
    assert sweep_weights(27, 8) == [8, 7, 6]
    assert sweep_weights(27, 7) == [7, 6, 5]
    assert sweep_weights(27, 6) == [6, 5, 4]
    assert sweep_weights(81, 20) == [20, 19, 18]
    assert sweep_weights(25, 12) == [12, 11, 10]
    assert sweep_weights(125, 41) == [41, 40]
    assert sweep_weights(49, 24) == [24, 23, 22]
    assert sweep_weights(121, 60) == [60, 59]


def test_table_blocks_start_at_max_t():
    seen = set()
    for p, m, t in TABLE_BLOCKS + BINARY_BLOCKS:
        q = p**m
        assert q - m * t > 0
        if (p, m) not in seen:
            # the first block per (p, m) uses the largest admissible t
            assert q - m * (t + 1) <= 0
            seen.add((p, m))


def test_table_rows_structure():
    rows = table_rows([(3, 3, 8)])
    assert rows == [(3, 3, 8, 8), (3, 3, 8, 7), (3, 3, 8, 6)]
    allrows = table_rows()
    assert (2, 4, 3, 3) in allrows and (2, 5, 6, 6) in allrows
    assert table_rows(include_binary=False) == table_rows()[: -len(BINARY_BLOCKS)]


def test_config_validation():
    with pytest.raises(ParamError):
        TrialConfig(3, 3, 9, 5).validate()
    with pytest.raises(ParamError):
        TrialConfig(3, 3, 8, 99).validate()
    with pytest.raises(ParamError):
        TrialConfig(3, 3, 8, 8, trials=0).validate()


def test_run_trials_zero_weight_always_succeeds():
    cfg = TrialConfig(3, 2, 2, 0, trials=20, seed=5)
    rep = run_trials(cfg, workers=1)
    assert rep.successes == 20
    assert rep.observed == 1.0


def test_run_trials_reproducible_and_worker_independent():
    cfg = TrialConfig(3, 2, 2, 2, trials=60, dist="equal", seed=31337)
    seq = run_trials(cfg, workers=1)
    rerun = run_trials(cfg, workers=1)
    par = run_trials(cfg, workers=2)
    assert seq.successes == rerun.successes == par.successes
    assert seq.csv_row() == par.csv_row()


@st.composite
def trial_configs(draw):
    p, m, t = draw(st.sampled_from([(2, 4, 3), (3, 3, 6), (5, 2, 6), (7, 2, 4)]))
    w = draw(st.integers(0, t + 2))
    kind = draw(st.sampled_from(["equal", "equal=v", "uniform", "profile"]))
    if kind == "equal=v":
        dist = ("equal", draw(st.integers(1, p - 1)))
    elif kind == "profile":
        u, v = draw(st.permutations(range(1, p)))[:2] if p > 2 else (1, 1)
        k = draw(st.integers(0, w))
        dist = {u: k, v: w - k} if u != v else {u: w}
    else:
        dist = kind
    return TrialConfig(p, m, t, w, dist=dist, seed=draw(st.integers(0, 2**64 - 1)))


@settings(max_examples=300, deadline=None)
@given(trial_configs(), st.integers(0, 2**20))
def test_single_trial_equals_full_decode_of_a_corrupted_codeword(cfg, index):
    # decoding e against the zero word, only at the phi whose locator degree
    # is <= t, gives the success bit of the full decode of codeword + e
    assert _single_trial(cfg, index) == reference_trial(cfg, index)


def test_run_trials_report_fields():
    cfg = TrialConfig(3, 2, 2, 1, trials=40, seed=7)
    rep = run_trials(cfg, workers=1)
    assert rep.predicted == pytest.approx(success_prob_model(9, 2, 1))
    assert rep.predicted_count == round(40 * rep.predicted)
    sigma = binomial_sigma(rep.predicted, 40)
    assert rep.ci_low == pytest.approx(max(0.0, rep.predicted - 3 * sigma))
    assert rep.ci_high == pytest.approx(min(1.0, rep.predicted + 3 * sigma))
    assert 0 <= rep.successes <= 40
    assert rep.wallclock > 0


def test_csv_format():
    cfg = TrialConfig(3, 2, 2, 1, trials=10, seed=1)
    rep = run_trials(cfg, workers=1)
    text = csv_report([rep], seed=1)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[:6] == ["3", "2", "2", "1", "10", str(rep.successes)]
    assert len(cells) == 10
    assert lines[2].startswith("# seed=1 version=")


def test_resolve_workers_env_cap(monkeypatch):
    monkeypatch.setenv("PGOPPA_MAX_WORKERS", "1")
    assert resolve_workers(8) == 1
    monkeypatch.delenv("PGOPPA_MAX_WORKERS")
    assert resolve_workers(3) == 3
    assert resolve_workers(0) == 1
    for bad in ("abc", "2.5"):
        monkeypatch.setenv("PGOPPA_MAX_WORKERS", bad)
        with pytest.raises(ParamError, match="PGOPPA_MAX_WORKERS"):
            resolve_workers(3)
