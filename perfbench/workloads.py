"""The four benchmark workloads.

Each workload turns the benchmark seed into its inputs during set-up, then
runs numbered operations through the package's public API.  Operation i
depends only on (seed, i), so the first k operations, and the digest over
them, are the same whatever the run length.  Every call into the package
goes through the module attribute (``self.pg.decoder.decode``) so that the
tracing wrappers, when installed, see it.
"""

from __future__ import annotations

FRESH_BLOCK = (3, 4, 20, 20)  # Table-1 block (p, m, t, w), equal magnitudes
FIXED_BLOCK = (7, 2, 24, 24)
FIXED_CODES = 3
PROBE_PARAMS = (3, 4, 1)  # (p, m, r)
POOL_BATCH = 64
POOL_WORKERS = 2
RECHECK_TRIALS = 4  # trials per run re-derived and decoded outside the timed phase
# Warm-up inputs do not depend on the seed, so set-up does the same work on
# every seed; the warm-up seed lies far above any benchmark seed.
WARMUP_SEED = 1 << 40


def op_seed(seed: int, i: int) -> int:
    """Trial-config seed of operation i; distinct for i < 2**20."""
    return (seed << 20) | i


class CheckError(Exception):
    """An operation's output failed the benchmark's correctness check."""


class Workload:
    name = ""
    entry = ""  # span name of the package call one operation makes
    rate = 1.0  # operations per second on the reference host (sets the run length)
    min_ops = 100  # p90 of the latencies needs at least 10 samples beyond it
    digest_ops = 48  # operations the outcome digest covers
    trials_per_op = 1
    workers = 1  # processes run_trials is asked for
    cal_every = 1  # operations per host-speed sample

    def __init__(self, pg, seed: int, n_ops: int):
        self.pg = pg
        self.seed = seed
        self.n_ops = n_ops

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, i: int):
        raise NotImplementedError

    def outcome(self, i: int, result) -> tuple[int, object]:
        """(successes, digest item) of operation i; raises CheckError when the
        output is wrong.  Called after the timed phase."""
        raise NotImplementedError

    def recheck(self, successes: list[int]) -> list:
        """Extra correctness checks after the timed phase, given each
        operation's successes; raises CheckError.  Returns extra items for
        the outcome digest."""
        return []


def recheck_trial(pg, cfg, index: int) -> tuple[bool, list]:
    """Re-derive trial `index` of `cfg` by the documented recipe (code, then
    error, then codeword, all from trial_stream(seed, index)), decode it, and
    check every candidate is a codeword.  Returns whether decoding succeeded
    and the sorted candidates."""
    stream = pg.rng.trial_stream(cfg.seed, index)
    code = pg.goppa.build_code(cfg.p, cfg.m, cfg.t, cfg.n, rng=stream)
    error = pg.goppa.sample_error(code.n, cfg.w, cfg.dist, cfg.p, stream)
    codeword = code.random_codeword(stream)
    received = tuple((a + b) % cfg.p for a, b in zip(codeword, error.values))
    candidates = pg.decoder.decode(code, received).codewords()
    if not all(code.contains(c) for c in candidates):
        raise CheckError(f"trial {index} of seed {cfg.seed}: a candidate is not a codeword")
    return codeword in candidates, sorted(candidates)


class Fresh(Workload):
    """One Table-1 trial per operation, each with a new random code."""

    name = "fresh"
    entry = "experiments.run_trials"
    rate = 15.0
    digest_ops = 100

    def config(self, i: int, seed: int | None = None):
        p, m, t, w = FRESH_BLOCK
        seed = self.seed if seed is None else seed
        return self.pg.experiments.TrialConfig(p, m, t, w, trials=1, seed=op_seed(seed, i))

    def setup(self) -> None:
        self.configs = [self.config(i) for i in range(self.n_ops)]
        self.pg.experiments.run_trials(self.config(0, WARMUP_SEED), workers=1)

    def run_op(self, i: int):
        return self.pg.experiments.run_trials(self.configs[i], workers=1)

    def outcome(self, i: int, result) -> tuple[int, object]:
        if result.config.trials != 1 or result.successes not in (0, 1):
            raise CheckError(f"operation {i}: {result.successes} successes in one trial")
        return result.successes, result.successes

    def recheck(self, successes: list[int]) -> list:
        items = []
        for i in range(min(RECHECK_TRIALS, self.n_ops)):
            ok, candidates = recheck_trial(self.pg, self.configs[i], 0)
            if ok != bool(successes[i]):
                raise CheckError(f"operation {i}: re-derived trial disagrees with run_trials")
            items.append(candidates)
        return items


class Fixed(Workload):
    """Decodes against three codes built during set-up, so per-code caches
    are warm and construction is absent from the timed phase."""

    name = "fixed"
    entry = "decoder.decode"
    rate = 19.0

    def setup(self) -> None:
        pg = self.pg
        p, m, t, w = FIXED_BLOCK
        self.codes = [pg.goppa.build_code(p, m, t, rng=pg.rng.trial_stream(self.seed, k)) for k in range(FIXED_CODES)]
        stream = pg.rng.trial_stream(self.seed, FIXED_CODES)
        self.words, self.truth = [], []
        # the first FIXED_CODES words warm each code up; operation i decodes word i + FIXED_CODES
        for i in range(FIXED_CODES + self.n_ops):
            code = self.codes[i % FIXED_CODES]
            error = pg.goppa.sample_error(code.n, w, "equal", p, stream)
            codeword = code.random_codeword(stream)
            self.truth.append(codeword)
            self.words.append(tuple((a + b) % p for a, b in zip(codeword, error.values)))
        for k in range(FIXED_CODES):
            pg.decoder.decode(self.codes[k], self.words[k])

    def run_op(self, i: int):
        j = FIXED_CODES + i
        return self.pg.decoder.decode(self.codes[j % FIXED_CODES], self.words[j])

    def outcome(self, i: int, result) -> tuple[int, object]:
        j = FIXED_CODES + i
        code = self.codes[j % FIXED_CODES]
        codewords = result.codewords()
        if not all(code.contains(c) for c in codewords):
            raise CheckError(f"operation {i}: a candidate is not a codeword")
        return int(self.truth[j] in codewords), sorted(codewords)


class Probe(Workload):
    """Alternant feasibility probe, one trial per call on a single stream:
    tiny polynomials and field-table lookups, no Goppa code, no reduction."""

    name = "probe"
    entry = "alternant.feasibility_probe"
    rate = 2500.0
    digest_ops = 2000
    cal_every = 10

    def setup(self) -> None:
        rng = self.pg.rng
        warm = rng.SplitMix64(WARMUP_SEED)
        for _ in range(10):
            self.pg.alternant.feasibility_probe(*PROBE_PARAMS, trials=1, rng=warm)
        self.stream = rng.SplitMix64(self.seed)

    def run_op(self, i: int):
        return self.pg.alternant.feasibility_probe(*PROBE_PARAMS, trials=1, rng=self.stream)

    def outcome(self, i: int, result) -> tuple[int, object]:
        if result.trials != 1 or result.feasible not in (0, 1):
            raise CheckError(f"operation {i}: {result.feasible} feasible of {result.trials}")
        return result.feasible, result.feasible


class Pool(Workload):
    """The `fresh` block in batches through run_trials' process pool; the
    parent only waits, as under `pgoppa table1`."""

    name = "pool"
    entry = "experiments.run_trials"
    rate = 26.0 / POOL_BATCH
    min_ops = 16  # batches; their times are unscaled, so a run averages more of the host
    digest_ops = 2
    trials_per_op = POOL_BATCH
    workers = POOL_WORKERS

    def config(self, i: int, seed: int | None = None, trials: int = POOL_BATCH):
        p, m, t, w = FRESH_BLOCK
        seed = self.seed if seed is None else seed
        return self.pg.experiments.TrialConfig(p, m, t, w, trials=trials, seed=op_seed(seed, i))

    def setup(self) -> None:
        self.configs = [self.config(i) for i in range(self.n_ops)]
        # starts a pool and its workers once before timing
        self.pg.experiments.run_trials(self.config(0, WARMUP_SEED, 2 * POOL_WORKERS), workers=self.workers)

    def run_op(self, i: int):
        return self.pg.experiments.run_trials(self.configs[i], workers=self.workers)

    def outcome(self, i: int, result) -> tuple[int, object]:
        if result.config.trials != POOL_BATCH or not 0 <= result.successes <= POOL_BATCH:
            raise CheckError(f"operation {i}: {result.successes} successes in {POOL_BATCH} trials")
        return result.successes, result.successes

    def recheck(self, successes: list[int]) -> list:
        return [recheck_trial(self.pg, self.configs[0], index)[1] for index in range(RECHECK_TRIALS)]


WORKLOADS = {w.name: w for w in (Fresh, Fixed, Probe, Pool)}


def op_count(workload: type[Workload], seconds: float) -> int:
    """Operations in a run of about `seconds` on the reference host.  The
    count is fixed by (workload, seconds) alone, so success_ratio and the
    per-operation counts repeat exactly for a given seed."""
    return max(workload.min_ops, round(workload.rate * seconds))
