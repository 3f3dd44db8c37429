"""Harness tests: the success model, sweep rule, trial reproducibility,
worker independence, the kept process pool, and the seeded generator's
reference vectors."""

import json
import multiprocessing
import multiprocessing.connection
import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
import time
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgoppa import experiments
from pgoppa.errors import ParamError
from pgoppa.experiments import (
    BINARY_BLOCKS,
    CSV_HEADER,
    TABLE_BLOCKS,
    WORKERS_ENV,
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
from pgoppa.rng import _WINDOW, SplitMix64, mix64, trial_stream

from oracles import SplitMix64Reference, reference_trial, sample_reference, shuffle_reference


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


def test_block_finalizer_in_place_equals_masked_ints():
    # the block path finalizes its uint64 array in place without masks; the
    # int path keeps them.  481 draws pass a (3,4,20) search block of 480.
    for seed in (0, 1, (1 << 63) + 5):
        for n in (1, 80, 481):
            single = SplitMix64(seed)
            assert SplitMix64(seed).next_u64_block(n).tolist() == [single.next_u64() for _ in range(n)]
        z = mix64(seed)
        assert type(z) is int and z == mix64(seed + (1 << 64))
        states = np.array([seed], dtype=np.uint64)
        assert mix64(states) is states and states.tolist() == [z]


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


# [b] * n, the shape of every list the library draws from: one scalar modulus
EQUAL_BOUNDS = st.builds(lambda b, n: [b] * n, st.integers(1, 2**64 - 1), st.integers(0, 40))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**64 - 1), st.integers(0, 30), st.integers(0, _WINDOW + 5),
    st.one_of(st.lists(st.integers(1, 2**64 - 1), max_size=40), EQUAL_BOUNDS),
)
def test_bulk_draws_match_one_draw_at_a_time(seed, n, skip, bounds):
    # k and len(bounds) run from an empty block up; skip moves the cursor
    # before the bounds' block, so that some blocks run past the window's end
    for k in range(n + 1):
        bulk, single = SplitMix64(seed), SplitMix64(seed)
        assert bulk.sample(range(n), k) == sample_reference(single, range(n), k)
        assert bulk.state == single.state
    bulk, single = SplitMix64(seed), SplitMix64(seed)
    items, expected = list(range(n)), list(range(n))
    bulk.shuffle(items)
    shuffle_reference(single, expected)
    assert items == expected and bulk.state == single.state
    bulk.advance(skip)
    single.advance(skip)
    assert bulk.randranges(bounds) == [single.randrange(b) for b in bounds]
    assert bulk.state == single.state


def test_bulk_draw_rejects_a_modulus_below_one():
    g = SplitMix64(13)
    for bounds in (
        [0], [5, 0, 3], [-1], [4, -7], [3] * 40 + [0], [0] * 5, [-2] * 3,
        range(3, -1, -1), range(0, 5), range(-2, 3), range(5, -3, -2), range(-4, 0),
    ):
        with pytest.raises(ValueError):
            g.randranges(bounds)
        assert g.state == 13  # nothing was drawn


def _windowed_step(plan: random.Random, stream: SplitMix64, ref: SplitMix64Reference) -> None:
    """One randomly chosen call, made on both streams and compared."""
    op = plan.choice(("next", "block", "advance", "randranges", "sample", "shuffle", "state"))
    if op == "next":
        assert stream.next_u64() == ref.next_u64()
    elif op == "block":
        n = plan.choice((-5, 0, 1, plan.randint(2, 90), _WINDOW - 1, _WINDOW, _WINDOW + plan.randint(1, 300)))
        block = stream.next_u64_block(n)
        assert block.tolist() == ref.next_u64_block(n)
        assert not block.flags.writeable
    elif op == "advance":
        n = plan.choice((0, 1, plan.randint(2, 90), _WINDOW + plan.randint(0, 3000), plan.getrandbits(70)))
        stream.advance(n)
        ref.advance(n)
    elif op == "randranges":
        n = plan.choice((0, plan.randint(1, 90)))
        bounds = plan.choice((
            [plan.randint(1, 2**64 - 1) for _ in range(n)],
            [plan.randint(1, 9) for _ in range(n)],
            range(n, 0, -1),
            range(n + 1, 1, -1),
            range(1, n + 1),
            range(plan.randint(1, 2**63), 2**64 - 1, 2**61),
        ))
        assert stream.randranges(bounds) == ref.randranges(bounds)
    elif op == "sample":
        n = plan.choice((plan.randint(0, 90), plan.randint(90, 3000)))
        k = plan.randint(0, min(n, 90))
        assert stream.sample(range(n), k) == sample_reference(ref, range(n), k)
    elif op == "shuffle":
        items = list(range(plan.randint(0, 90)))
        expected = list(items)
        stream.shuffle(items)
        shuffle_reference(ref, expected)
        assert items == expected
    else:
        stream.state = ref.state = plan.getrandbits(64)


@pytest.mark.parametrize("seed", range(8))
def test_windowed_stream_equals_a_per_draw_reference(seed):
    # seeded random interleavings of every draw, across window refills,
    # blocks past the window's end and state assignments
    plan = random.Random(seed)
    start = plan.getrandbits(64)
    stream, ref = SplitMix64(start), SplitMix64Reference(start)
    for _ in range(250):
        _windowed_step(plan, stream, ref)
        assert stream.state == ref.state


def test_a_draw_at_the_window_end_refills_it():
    g, ref = SplitMix64(17), SplitMix64Reference(17)
    g.next_u64_block(1)  # fills the window
    g.advance(_WINDOW)  # the cursor at its very end
    ref.advance(_WINDOW)
    assert g.next_u64_block(0).tolist() == [] and g.randranges([]) == [] and g.state == ref.state
    assert g.next_u64() == ref.next_u64() and g.state == ref.state


class _Unlistable(Sequence):
    """The integers 0 .. 10**12 - 1, which may be indexed and sliced but not
    iterated or copied."""

    def __len__(self):
        return 10**12

    def __getitem__(self, i):
        return range(10**12)[i]

    def __iter__(self):
        raise AssertionError("sample iterated its whole sequence")


def test_sample_reads_only_the_positions_it_draws():
    # partial Fisher-Yates over a dict of moved positions, one randrange per
    # draw: the reference for sequences far too long to copy
    for seq, offset in ((_Unlistable(), 0), (range(1, 2147483659), 1)):
        ref = SplitMix64Reference(31)
        moved = {}
        for i in range(30):
            j = i + ref.randrange(len(seq) - i)
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        g = SplitMix64(31)
        assert g.sample(seq, 30) == [moved[i] + offset for i in range(30)]
        assert g.state == ref.state


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


def test_success_prob_model_is_zero_past_t():
    # no locator of degree at most t yields more than t errors, so no phi is
    # tried and every trial fails; the formula itself went negative
    assert success_prob_model(27, 2, 4) == 0.0
    assert success_prob_model(27, 2, 3) == 0.0
    for w in (3, 4):
        rep = run_trials(TrialConfig(3, 3, 2, w, trials=4, seed=1), workers=1)
        assert (rep.successes, rep.predicted, rep.ci_low, rep.ci_high) == (0, 0.0, 0.0, 0.0)
        assert rep.csv_row() == f"3,3,2,{w},4,0,0.000000,0.000000,0.000000,0.000000"


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
    # n is checked before any trial runs, with build_code's messages
    with pytest.raises(ParamError, match="dimension bound violated: n - m\\*t = 0"):
        TrialConfig(3, 3, 6, 4, n=18).validate()
    with pytest.raises(ParamError, match="n = 30 exceeds field size 27"):
        TrialConfig(3, 3, 6, 4, n=30).validate()
    with pytest.raises(ParamError, match="dimension bound"):
        run_trials(TrialConfig(3, 3, 6, 4, trials=8, n=18), workers=2)
    for bad in (TrialConfig(3.0, 2, 2, 1), TrialConfig(3, 2.0, 2, 1), TrialConfig(3, 2, 2.0, 1),
                TrialConfig(3, 2, 2, 1.0), TrialConfig(3, 2, 2, 1, trials=2.0), TrialConfig(3, 2, 2, 1, n=9.0),
                TrialConfig(3, 2, 2, 1, trials=2, seed=1.5)):
        with pytest.raises(ParamError, match="must be integers"):
            run_trials(bad)
    for seed in (-1, 0, 2**64):  # a seed of either sign stays valid
        TrialConfig(3, 2, 2, 1, trials=2, seed=seed).validate()


@pytest.mark.parametrize(
    "cfg, message",
    [
        (TrialConfig(4, 2, 2, 2), "characteristic must be prime, got 4"),
        (TrialConfig(3, 0, 1, 0), "characteristic and extension degree must be integers"),
        (TrialConfig(3, 3, 0, 0), "t and n must be integers"),
        (TrialConfig(3, 40, 2, 1), "field size 3\\*\\*40 exceeds 2\\*\\*63"),
        (TrialConfig(2, 64, 2, 1), "field size 2\\*\\*64 exceeds 2\\*\\*63"),
        (TrialConfig(3, 2, 2, 1, trials=8, dist="bogus"), "unknown magnitude distribution 'bogus'"),
        (TrialConfig(3, 2, 2, 1, trials=8, dist={1: 2}), "do not sum to the weight"),
    ],
    ids=["composite-p", "m=0", "t=0", "q=3**40", "q=2**64", "unknown-law", "profile-misses-w"],
)
def test_config_every_trial_rejects_fails_before_the_pool(monkeypatch, cfg, message):
    # make_field's, build_code's and sample_error's own checks, with their
    # wording, before any worker forks
    def no_pool(nworkers):
        raise AssertionError("the pool was reached")

    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.setattr(experiments, "_pool", no_pool)
    with pytest.raises(ParamError, match=message):
        run_trials(cfg, workers=2)


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


POOL_BLOCKS = (TrialConfig(3, 3, 6, 6, trials=24, seed=77), TrialConfig(5, 2, 6, 5, trials=24, dist="uniform", seed=78))


def pool_pids() -> list[int]:
    return sorted(p.pid for p in multiprocessing.active_children())


def still_alive(pids, seconds: float = 5) -> set[int]:
    """The pids that still exist after polling them for up to `seconds`."""
    alive = set(pids)
    deadline = time.monotonic() + seconds
    while alive and time.monotonic() < deadline:
        for pid in list(alive):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                alive.discard(pid)
        time.sleep(0.05)
    return alive


def test_pool_is_kept_per_worker_count_and_matches_one_worker(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    serial = [run_trials(cfg, workers=1) for cfg in POOL_BLOCKS]
    pids = []
    for workers in (2, 3, 2):
        per_block = []
        for cfg, ref in zip(POOL_BLOCKS, serial):
            rep = run_trials(cfg, workers=workers)
            assert rep.successes == ref.successes and rep.csv_row() == ref.csv_row()
            per_block.append(pool_pids())
        # both blocks ran on the same workers, and the last count's were joined
        assert per_block[0] == per_block[1] and len(per_block[0]) == workers
        pids.append(per_block[0])
    assert not set(pids[0]) & set(pids[1]) and not set(pids[1]) & set(pids[2])


def test_pool_replaces_a_worker_killed_while_idle(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    cfg = POOL_BLOCKS[0]
    serial = run_trials(cfg, workers=1).successes
    assert run_trials(cfg, workers=2).successes == serial
    victim = multiprocessing.active_children()[0]
    os.kill(victim.pid, signal.SIGKILL)
    assert multiprocessing.connection.wait([victim.sentinel], timeout=10)
    # the broken pool is replaced and the batch run again
    assert run_trials(cfg, workers=2).successes == serial
    assert victim.pid not in pool_pids() and len(pool_pids()) == 2


# Of two idle workers, one (the holder) holds the call queue's lock and waits
# in a read on the queue's pipe; the other (the waiter) waits for the lock.
# Only the holder's death can hang a pool that does not terminate its idle
# workers, so the scripts pick the victim by its role: the holder is the
# worker whose /proc/<pid>/syscall number is that of a helper blocked in
# os.read on a pipe.  Where that file cannot be read, pid order stands in.
# Even then such a pool hangs only if the switch or exit wakes its manager
# thread before that thread sees the death (about 3 runs in 4 on a 2-core
# host), so each test kills the holder in HOLDER_ROUNDS runs of its scenario.
HOLDER_ROUNDS = 5
PICK_VICTIM = textwrap.dedent("""
    import os, sys, time

    def blocked_in(pid):
        # the number of the system call pid is blocked in, None while it runs
        with open(f"/proc/{pid}/syscall") as fh:
            number = fh.read().split()[0]
        return number if number.isdigit() else None  # not "running" or -1

    def pipe_read_number():
        r, w = os.pipe()
        helper = os.fork()
        if helper == 0:
            os.read(r, 1)
            os._exit(0)
        try:
            for _ in range(500):
                if (number := blocked_in(helper)) is not None:
                    return number
                time.sleep(0.01)
        except OSError:  # no readable /proc/<pid>/syscall
            return None
        finally:
            os.write(w, b"x")
            os.waitpid(helper, 0)
            os.close(r)
            os.close(w)

    def pick_victim(workers, role):
        workers = sorted(workers, key=lambda proc: proc.pid)
        for _ in range(500 if PIPE_READ is not None else 0):
            numbers = [blocked_in(proc.pid) for proc in workers]
            if None not in numbers and numbers.count(PIPE_READ) == 1:
                holder = numbers.index(PIPE_READ)
                return workers[holder if role == "holder" else 1 - holder]
            time.sleep(0.01)
        return workers[("holder", "waiter").index(role)]

    PIPE_READ = pipe_read_number()  # before any pool thread starts
""")

SWITCH_SCRIPT = PICK_VICTIM + textwrap.dedent("""
    import json, multiprocessing, os, signal, sys
    from pgoppa.experiments import TrialConfig, run_trials
    cfg = TrialConfig(3, 3, 6, 6, trials=12, seed=5)
    serial = run_trials(cfg, workers=1).successes
    run_trials(cfg, workers=2)
    old = sorted(multiprocessing.active_children(), key=lambda proc: proc.pid)
    victim = pick_victim(old, sys.argv[1])
    os.kill(victim.pid, signal.SIGKILL)
    # switch at once, with no wait in which the pool's manager thread could
    # see the death first: it would then end the pool as broken by itself
    print(json.dumps({
        "matches": run_trials(cfg, workers=3).successes == serial,
        "old": [proc.pid for proc in old],
        "new": sorted(proc.pid for proc in multiprocessing.active_children()),
    }))
""")


def run_in_own_session(script: str, victim: str, hang: str) -> tuple[int, object, str]:
    """(pid, last stdout line as JSON, stderr) of `script` run with `victim`
    in a child interpreter of its own session, so that a hang is a failure
    (`hang`) and its whole process group is killed."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop(WORKERS_ENV, None)
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(victim)], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(hang)
    assert proc.returncode == 0, err
    return proc.pid, json.loads(out.splitlines()[-1]), err


def none_outlive(pids, group: int) -> bool:
    """Whether all of pids end within a few seconds; the group is killed if not."""
    alive = still_alive(pids)
    if alive:
        os.killpg(group, signal.SIGKILL)
    return not alive


@pytest.mark.parametrize("victim", ["holder", "waiter"])
def test_pool_switch_after_a_worker_died_while_idle(victim):
    # whichever of two idle workers is killed, the call queue's lock holder
    # or the worker waiting for it, switching to three workers neither hangs
    # nor leaves the survivor behind
    for _ in range(HOLDER_ROUNDS if victim == "holder" else 1):
        group, result, _ = run_in_own_session(SWITCH_SCRIPT, victim, "switching worker counts hung after a worker died")
        assert result["matches"] and len(result["new"]) == 3 and not set(result["old"]) & set(result["new"])
        assert none_outlive(result["old"] + result["new"], group)


EXIT_SCRIPT = PICK_VICTIM + textwrap.dedent("""
    import json, multiprocessing, os, signal, sys
    from pgoppa.experiments import TrialConfig, run_trials
    run_trials(TrialConfig(3, 3, 6, 6, trials=12, seed=5), workers=2)
    workers = sorted(multiprocessing.active_children(), key=lambda proc: proc.pid)
    victim = pick_victim(workers, sys.argv[1])
    print(json.dumps([proc.pid for proc in workers]), flush=True)
    # exit at once, with no wait in which the pool's manager thread could see
    # the death first: it would then end the pool as broken by itself
    os.kill(victim.pid, signal.SIGKILL)
""")


@pytest.mark.parametrize("victim", ["holder", "waiter"])
def test_pool_exit_after_a_worker_died_while_idle(victim):
    # whichever of two idle workers is killed just before the interpreter
    # exits, the lock holder or the waiter, the exit neither hangs nor leaves
    # the survivor behind
    for _ in range(HOLDER_ROUNDS if victim == "holder" else 1):
        group, workers, _ = run_in_own_session(EXIT_SCRIPT, victim, "the interpreter hung at exit after a worker died")
        assert none_outlive(workers, group)


RAISE_SCRIPT = textwrap.dedent("""
    import json, multiprocessing, os, signal, sys, threading, time
    from pgoppa import experiments
    from pgoppa.experiments import TrialConfig, run_trials
    trial, interrupt = experiments._single_trial, sys.argv[1] == "interrupt"

    def slow(cfg, index):
        # trial 5 raises, unless the batch is interrupted; each chunk from
        # trial 8 on holds its worker for 40 s, so a close that let the
        # workers finish their calls would show
        if index == 5 and not interrupt:
            raise RuntimeError(f"trial {index} raised")
        if index >= 8:
            time.sleep(10)
        return trial(cfg, index)

    # the workers are forked, so they call slow too
    experiments._single_trial = slow
    cfg = TrialConfig(3, 2, 2, 1, trials=64, seed=1)
    if interrupt:  # SIGINT to this process alone, as an interrupted notebook kernel gets
        threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT)).start()
    started = time.perf_counter()
    try:
        run_trials(cfg, workers=2)
        raised = None
    except (RuntimeError, KeyboardInterrupt) as exc:
        raised = repr(exc)
    result = {
        "raised": raised,
        "seconds": time.perf_counter() - started,
        "left": [proc.pid for proc in multiprocessing.active_children()],
    }
    if not interrupt:  # a later batch takes a new pool, and its workers end at exit
        experiments._single_trial = trial
        result["matches"] = run_trials(cfg, workers=2).successes == run_trials(cfg, workers=1).successes
        result["workers"] = [proc.pid for proc in multiprocessing.active_children()]
    print(json.dumps(result))
""")


def test_pool_closes_after_a_trial_raised():
    # a trial that raises in a worker reaches the caller at once, and the
    # pool is closed before it does: no worker is left, and the exit prints
    # no InvalidStateError, which terminating live workers whose pool still
    # holds calls that map cancelled would set off
    for _ in range(5):
        group, result, err = run_in_own_session(RAISE_SCRIPT, "raise", "the interpreter hung after a trial raised")
        assert result["raised"] == "RuntimeError('trial 5 raised')" and result["left"] == []
        assert result["seconds"] < 5, result
        assert result["matches"] and len(result["workers"]) == 2
        assert "InvalidStateError" not in err and "Traceback" not in err, err
        assert none_outlive(result["workers"], group)


def test_pool_exit_after_an_interrupted_batch():
    # an interrupt reaches the caller at once and leaves the pool to the
    # exit hook, which ends its busy workers with no InvalidStateError
    for _ in range(3):
        group, result, err = run_in_own_session(RAISE_SCRIPT, "interrupt", "the interpreter hung after an interrupt")
        assert result["raised"] == "KeyboardInterrupt()" and len(result["left"]) == 2
        assert result["seconds"] < 5, result
        assert "InvalidStateError" not in err and "Traceback" not in err, err
        assert none_outlive(result["left"], group)


def test_pool_serves_threads_one_batch_at_a_time(monkeypatch):
    # a thread never shuts down a pool that another thread's batch is using
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    cfg = POOL_BLOCKS[0]
    serial = run_trials(cfg, workers=1).successes
    results = []

    def calls(workers):
        results.extend(run_trials(cfg, workers=workers).successes for _ in range(3))

    threads = [threading.Thread(target=calls, args=(w,)) for w in (2, 3, 2, 3)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
    assert not any(th.is_alive() for th in threads)
    assert results == [serial] * 12


POOL_SCRIPT = textwrap.dedent("""
    import json, multiprocessing, os, threading, warnings
    threads_at_fork = []
    os.register_at_fork(before=lambda: threads_at_fork.append(threading.active_count()))
    from pgoppa.experiments import TrialConfig, run_trials
    cfg = TrialConfig(3, 3, 6, 6, trials=12, seed=5)
    pids = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for workers in (2, 2, 3, 2):
            run_trials(cfg, workers=workers)
            pids.append(sorted(p.pid for p in multiprocessing.active_children()))
    print(json.dumps({
        "start_method": multiprocessing.get_start_method(),
        "pids": pids,
        "threads_at_fork": threads_at_fork,
        "fork_warnings": [str(w.message) for w in caught if "fork" in str(w.message)],
    }))
""")


@pytest.fixture(scope="module")
def pool_process():
    """A fresh interpreter that makes pooled calls at worker counts 2, 2, 3, 2
    and exits.  BLAS threads are held to one, so that the only threads alive
    at a fork are Python's own (Python 3.12 warns on a fork with more)."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop(WORKERS_ENV, None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", POOL_SCRIPT], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_pool_workers_end_with_the_interpreter(pool_process):
    pids = pool_process["pids"]
    assert pids[0] == pids[1] and len(pids[2]) == 3 and len(pids[3]) == 2
    assert not still_alive([pid for call in pids for pid in call])


def test_pool_forks_with_no_other_thread_alive(pool_process):
    assert pool_process["fork_warnings"] == []
    # Python 3.10 may fork a pool's later workers after its manager thread starts
    if pool_process["start_method"] == "fork" and sys.version_info >= (3, 11):
        # 2 + 0 + 3 + 2 forks: a kept pool forks nothing, a replaced one is joined first
        assert pool_process["threads_at_fork"] == [1] * 7


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


@pytest.mark.parametrize("bad", [1.5, "2", True])
def test_non_integer_worker_counts_are_param_errors(bad):
    with pytest.raises(ParamError, match="worker count"):
        resolve_workers(bad)
    with pytest.raises(ParamError, match="worker count"):
        run_trials(TrialConfig(3, 2, 2, 1, 4, seed=1), workers=bad)
