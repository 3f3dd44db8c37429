"""Monte-Carlo harness for decoding-success statistics.

Each trial draws a fresh random code and an error e, and succeeds when
decoding c + e returns the codeword c.  `decode` reads a word only through
its syndrome and returns it minus each verified error, so that is decoding e
to the zero codeword, which the harness does instead.  Trial i consumes only
the stream derived from (seed, i), so counts are reproducible bit-for-bit
regardless of how trials are scheduled across worker processes.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial

from .decoder import decode, locator_degree
from .errors import ParamError, check_integers
from .fields import _check_characteristic
from .goppa import _check_shape, build_code, sample_error
from .rng import trial_stream

WORKERS_ENV = "PGOPPA_MAX_WORKERS"


def success_prob_model(q: int, t: int, w: int) -> float:
    """Modeled probability 1 - q**-(t+1-w) that decoding w equal-magnitude
    errors in a fresh degree-t code succeeds; 0 past t, where every
    locator has degree above t (the formula reads 0 at w = t + 1)."""
    return 1.0 - float(q) ** (-(t + 1 - w)) if w <= t else 0.0


def binomial_sigma(p0: float, n: int) -> float:
    return (p0 * (1.0 - p0) / n) ** 0.5


@dataclass(frozen=True)
class TrialConfig:
    p: int
    m: int
    t: int
    w: int
    trials: int = 1000
    dist: object = "equal"
    seed: int = 0
    n: int | None = None

    def validate(self) -> None:
        _check_characteristic(self.p, self.m)  # make_field's check, building no field
        check_integers((self.w,), 0, math.inf, "weight w")
        check_integers((self.trials,), 1, math.inf, "trials")
        check_integers((self.seed,), -math.inf, math.inf, "seed")
        n = self.n if self.n is not None else self.q
        _check_shape(self.q, self.m, self.t, n)
        if not 0 <= self.w <= n:
            raise ParamError(f"weight {self.w} out of range for length {n}")

    @property
    def q(self) -> int:
        return self.p**self.m


@dataclass
class TrialReport:
    config: TrialConfig
    successes: int
    observed: float
    predicted: float
    ci_low: float
    ci_high: float
    wallclock: float

    def csv_row(self) -> str:
        c = self.config
        return (
            f"{c.p},{c.m},{c.t},{c.w},{c.trials},{self.successes},"
            f"{self.observed:.6f},{self.predicted:.6f},{self.ci_low:.6f},{self.ci_high:.6f}"
        )


CSV_HEADER = "p,m,t,w,trials,successes,observed,predicted,ci_low,ci_high"


def csv_report(reports: list[TrialReport], seed: int) -> str:
    from . import __version__

    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in reports)
    lines.append(f"# seed={seed} version={__version__}")
    return "\n".join(lines) + "\n"


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: the request (or cpu count), capped by PGOPPA_MAX_WORKERS.
    It is read on every `run_trials` call, and a new count replaces the
    kept process pool."""
    if requested is not None:
        check_integers((requested,), -math.inf, math.inf, "worker count")
    base = requested if requested is not None else (os.cpu_count() or 1)
    cap = os.environ.get(WORKERS_ENV)
    if cap:
        try:
            base = min(base, int(cap))
        except ValueError:
            raise ParamError(f"{WORKERS_ENV}={cap!r} is not an integer") from None
    return max(1, base)


def _single_trial(cfg: TrialConfig, index: int) -> bool:
    """Whether the zero word decodes from trial `index`'s error e; the
    codeword, the stream's last draw, is never drawn.  A candidate from phi
    has a locator of degree at least `locator_degree(e, phi, p)` and at most
    t, so only those phi are tried, and no decode runs when there are none."""
    rng = trial_stream(cfg.seed, index)
    code = build_code(cfg.p, cfg.m, cfg.t, cfg.n, rng=rng)
    e = sample_error(code.n, cfg.w, cfg.dist, cfg.p, rng).values
    phis = [phi for phi in range(1, cfg.p) if locator_degree(e, phi, cfg.p) <= cfg.t]
    return bool(phis) and (0,) * code.n in decode(code, e, phis).codewords()


_POOL: tuple[int, ProcessPoolExecutor] | None = None  # (worker count, pool)
_POOL_LOCK = threading.RLock()  # held for a whole pooled batch, so no thread replaces a pool in use


def _close_pool() -> None:
    """Shut the kept pool down with its queued calls cancelled, terminate
    its workers, then join them and the pool's manager thread.  A worker
    that died may have held the call queue's lock, on which a live one, and
    with it a plain join, would wait forever.  The shutdown wakes the
    manager before any worker dies, so the manager drops the calls a failed
    `map` cancelled before it sees a dead worker, and marks only running
    calls broken (a cancelled one raises InvalidStateError there)."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            pool = _POOL[1]
            procs, manager = list((pool._processes or {}).values()), pool._executor_manager_thread
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in procs:
                proc.terminate()
            if manager is not None:
                manager.join()
            _POOL = None


def _forget_pool() -> None:
    """In a forked child: the parent's pool is not the child's to close, and
    the fork may have caught its shutdown lock held."""
    global _POOL
    _POOL = None


# threading's exit hooks run last registered first, so this one runs before
# concurrent.futures' own, which joins the workers without terminating them;
# a worker inherits the hook, and runs it when a pool shuts down gracefully
threading._register_atexit(_close_pool)
os.register_at_fork(after_in_child=_forget_pool)


def _pool(nworkers: int) -> ProcessPoolExecutor:
    """The kept pool of `nworkers` processes.  One of another count is
    closed first, so that no executor thread is alive when the new pool
    forks its workers."""
    global _POOL
    if _POOL is None or _POOL[0] != nworkers:
        _close_pool()
        _POOL = (nworkers, ProcessPoolExecutor(max_workers=nworkers))
    return _POOL[1]


def run_trials(cfg: TrialConfig, workers: int | None = None) -> TrialReport:
    """Run the configured trials and report observed vs modeled success.

    With one worker, or fewer than two trials per worker, the trials run in
    this process.  Otherwise they run in a process pool kept at module level:
    the first pooled call makes it, later calls with the same
    `resolve_workers` count reuse it and its workers' warm caches, and a
    call with another count replaces it.  A pool broken by a dead worker is
    replaced and the batch run once more (trial i depends only on (seed, i));
    a second failure propagates, and so does any other exception, after
    `_close_pool` has closed the pool; an interrupt leaves that to the exit
    hook.  The workers live until the interpreter exits, when `_close_pool`
    terminates and joins them."""
    cfg.validate()
    nworkers = resolve_workers(workers)
    started = time.perf_counter()
    if nworkers <= 1 or cfg.trials < 2 * nworkers:
        successes = sum(_single_trial(cfg, i) for i in range(cfg.trials))
    else:
        # a bad magnitude law raises here, not in every worker: one throwaway error of weight w
        sample_error(cfg.w, cfg.w, cfg.dist, cfg.p, trial_stream(cfg.seed, 0))
        chunk = max(1, cfg.trials // (nworkers * 8))
        batch = partial(_single_trial, cfg), range(cfg.trials)
        with _POOL_LOCK:
            try:
                successes = sum(_pool(nworkers).map(*batch, chunksize=chunk))
            except BrokenProcessPool:
                _close_pool()
                successes = sum(_pool(nworkers).map(*batch, chunksize=chunk))
            except Exception:
                _close_pool()
                raise
    wallclock = time.perf_counter() - started
    predicted = success_prob_model(cfg.q, cfg.t, cfg.w)
    sigma = binomial_sigma(predicted, cfg.trials)
    return TrialReport(
        config=cfg,
        successes=successes,
        observed=successes / cfg.trials,
        predicted=predicted,
        ci_low=max(0.0, predicted - 3.0 * sigma),
        ci_high=min(1.0, predicted + 3.0 * sigma),
        wallclock=wallclock,
    )


# Built-in experiment grid.  For each (p, m), t starts at the largest value
# with p^m - m*t > 0 and w sweeps down from t until the modeled success
# probability exceeds 0.9999.  Binary blocks are omitted from the modeled
# sweep (no failures are expected at all); the harness runs them at w = t
# and hard-asserts a perfect score instead.
TABLE_BLOCKS: list[tuple[int, int, int]] = [
    (3, 3, 8),
    (3, 3, 7),
    (3, 3, 6),
    (3, 4, 20),
    (5, 2, 12),
    (5, 3, 41),
    (7, 2, 24),
    (11, 2, 60),
]

BINARY_BLOCKS: list[tuple[int, int, int]] = [(2, 4, 3), (2, 5, 6)]

SWEEP_STOP = 0.9999


def sweep_weights(q: int, t: int) -> list[int]:
    """w descending from t, including the first w whose modeled success
    exceeds SWEEP_STOP."""
    out = []
    for w in range(t, -1, -1):
        out.append(w)
        if success_prob_model(q, t, w) > SWEEP_STOP:
            break
    return out


def table_rows(
    blocks: list[tuple[int, int, int]] | None = None, include_binary: bool = True
) -> list[tuple[int, int, int, int]]:
    """(p, m, t, w) rows of the built-in experiment grid."""
    rows: list[tuple[int, int, int, int]] = []
    for p, m, t in blocks if blocks is not None else TABLE_BLOCKS:
        TrialConfig(p, m, t, 0).validate()  # before p**m, which a huge m takes for ever; a t < 1 sweeps no w
        if p == 2:
            rows.append((p, m, t, t))
            continue
        for w in sweep_weights(p**m, t):
            rows.append((p, m, t, w))
    if blocks is None and include_binary:
        for p, m, t in BINARY_BLOCKS:
            rows.append((p, m, t, t))
    return rows
