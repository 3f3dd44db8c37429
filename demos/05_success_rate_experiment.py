#!/usr/bin/env python3
"""Reproducing decoding-success statistics at desk scale: observed rates
against the 1 - q**-(t+1-w) model, with seeded, restartable trials."""

from pgoppa import TrialConfig, run_trials, success_prob_model
from pgoppa.experiments import CSV_HEADER, csv_report, sweep_weights

SEED = 42
TRIALS = 300  # raise to 1000+ for tighter intervals

# One block of the built-in grid: p=3, m=3, t=8, w sweeping 8, 7, 6.
print(f"w sweep for q=27, t=8: {sweep_weights(27, 8)}")
print()

reports = []
for w in sweep_weights(27, 8):
    cfg = TrialConfig(p=3, m=3, t=8, w=w, trials=TRIALS, dist="equal", seed=SEED)
    rep = run_trials(cfg)
    reports.append(rep)
    print(
        f"w={w}: observed {rep.observed:.4f}  model {rep.predicted:.6f}  "
        f"3-sigma interval [{rep.ci_low:.4f}, {rep.ci_high:.4f}]  "
        f"({rep.wallclock:.1f}s)"
    )

print("\nCSV form (deterministic for a fixed seed):")
print(csv_report(reports, SEED))

# Equal magnitudes reach w = t; uniform magnitudes are reliable only up to
# (2/p)t, where decoding never fails for p >= 5.
cfg = TrialConfig(p=5, m=2, t=12, w=4, trials=100, dist="uniform", seed=SEED)
rep = run_trials(cfg)
print(f"uniform magnitudes, w=4 <= (2/5)*12: observed {rep.observed:.3f} (expect 1.0)")

print(f"\nmodel spot values: {success_prob_model(27, 8, 8):.6f} (q=27, w=t),",
      f"{success_prob_model(25, 12, 12):.6f} (q=25, w=t)")
