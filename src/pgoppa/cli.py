"""Command-line front end.

Subcommands: gen, encode, corrupt, decode, table1, sweep, alternant-probe.
Experiment output is CSV with a header row and a trailing comment line
recording the seed and package version.
"""

from __future__ import annotations

import argparse
import sys

from .alternant import feasibility_probe
from .decoder import decode
from .errors import PgoppaError
from .experiments import (
    TrialConfig,
    csv_report,
    run_trials,
    sweep_weights,
    table_rows,
)
from .goppa import GoppaCode, build_code, sample_error, word_from_text, word_to_text
from .rng import SplitMix64


def _parse_dist(text: str):
    if text in ("uniform", "equal"):
        return text
    if text.startswith("equal="):
        return ("equal", int(text.split("=", 1)[1]))
    if text.startswith("profile="):
        profile = {}
        for item in text.split("=", 1)[1].split(","):
            v, c = item.split(":")
            profile[int(v)] = int(c)
        return profile
    raise argparse.ArgumentTypeError(
        f"unknown distribution {text!r}; use equal, equal=V, uniform, or profile=V:C,..."
    )


def _parse_block(text: str) -> tuple[int, int, int]:
    try:
        p, m, t = (int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"block {text!r} is not three integers P,M,T") from None
    return p, m, t


def _write_out(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    rng = SplitMix64(args.seed)
    code = build_code(
        args.p,
        args.m,
        args.t,
        args.n,
        rng=rng,
        irreducible_only=not args.square_free_composite,
    )
    _write_out(args.output, code.to_text())
    return 0


def _cmd_encode(args) -> int:
    code = GoppaCode.load(args.code)
    rng = SplitMix64(args.seed)
    _write_out(args.output, word_to_text(code.random_codeword(rng)) + "\n")
    return 0


def _cmd_corrupt(args) -> int:
    code = GoppaCode.load(args.code)
    with open(args.word) as fh:
        word = word_from_text(fh.read())
    code.syndrome_from_word(word)  # ParamError on a bad length or entry
    rng = SplitMix64(args.seed)
    error = sample_error(code.n, args.weight, args.dist, code.field.p, rng)
    received = tuple((a + b) % code.field.p for a, b in zip(word, error.values))
    _write_out(args.output, word_to_text(received) + "\n")
    if args.error_out:
        _write_out(args.error_out, word_to_text(error.values) + "\n")
    return 0


def _cmd_decode(args) -> int:
    code = GoppaCode.load(args.code)
    with open(args.word) as fh:
        received = word_from_text(fh.read())
    outcome = decode(code, received)
    print(f"status {outcome.status}")
    print(f"candidates {len(outcome.candidates)}")
    for idx, cand in enumerate(outcome.candidates, start=1):
        errs = " ".join(f"{j}:{v}" for j, v in enumerate(cand.error.values) if v)
        print(f"candidate {idx}")
        print(f"  phi {cand.phi}")
        print(f"  sigma {cand.sigma.to_text()}")
        print(f"  errors {errs if errs else '-'}")
        print(f"  codeword {word_to_text(cand.codeword)}")
    return 0


def _run_rows(rows, trials, seed, dist, workers) -> tuple[list, bool]:
    reports = []
    hard_ok = True
    for p, m, t, w in rows:
        cfg = TrialConfig(p=p, m=m, t=t, w=w, trials=trials, dist=dist, seed=seed)
        rep = run_trials(cfg, workers=workers)
        reports.append(rep)
        if p == 2 and rep.observed != 1.0:
            hard_ok = False
            print(
                f"# HARD ASSERTION FAILED: binary row ({p},{m},{t},{w}) "
                f"observed {rep.observed:.6f} != 1.0",
                file=sys.stderr,
            )
    return reports, hard_ok


def _cmd_table1(args) -> int:
    if args.rows:
        rows = table_rows(args.rows)
    else:
        rows = table_rows(include_binary=not args.no_binary)
    reports, hard_ok = _run_rows(rows, args.trials, args.seed, "equal", args.workers)
    sys.stdout.write(csv_report(reports, args.seed))
    return 0 if hard_ok else 1


def _cmd_sweep(args) -> int:
    TrialConfig(args.p, args.m, args.t, 0).validate()  # before p**m; a t < 1 sweeps no w
    rows = [(args.p, args.m, args.t, w) for w in sweep_weights(args.p**args.m, args.t)]
    reports, hard_ok = _run_rows(rows, args.trials, args.seed, args.dist, args.workers)
    sys.stdout.write(csv_report(reports, args.seed))
    return 0 if hard_ok else 1


def _cmd_alternant_probe(args) -> int:
    rng = SplitMix64(args.seed)
    report = feasibility_probe(args.p, args.m, args.r, args.trials, rng)
    print(report.line())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgoppa",
        description="Square-free Goppa codes over GF(p): generation, decoding, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random code and write its file")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--n", type=int, default=None, help="support size (default: maximal)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument(
        "--square-free-composite",
        action="store_true",
        help="draw the generator as a product of distinct irreducibles",
    )
    g.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    g.set_defaults(func=_cmd_gen)

    e = sub.add_parser("encode", help="emit a random codeword of a code")
    e.add_argument("--code", required=True)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("-o", "--output", default=None)
    e.set_defaults(func=_cmd_encode)

    c = sub.add_parser("corrupt", help="add a random error pattern to a word")
    c.add_argument("--code", required=True)
    c.add_argument("--word", required=True)
    c.add_argument("--weight", type=int, required=True)
    c.add_argument("--dist", type=_parse_dist, default="equal")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("-o", "--output", default=None)
    c.add_argument("--error-out", default=None, help="also write the true error pattern")
    c.set_defaults(func=_cmd_corrupt)

    d = sub.add_parser("decode", help="decode a received word, listing all candidates")
    d.add_argument("--code", required=True)
    d.add_argument("--word", required=True)
    d.set_defaults(func=_cmd_decode)

    t1 = sub.add_parser("table1", help="run the built-in success-rate grid (CSV)")
    t1.add_argument(
        "--rows",
        action="append",
        type=_parse_block,
        metavar="P,M,T",
        help="restrict to one block, e.g. --rows 3,3,8 (repeatable)",
    )
    t1.add_argument("--trials", type=int, default=1000)
    t1.add_argument("--seed", type=int, default=0)
    t1.add_argument("--no-binary", action="store_true", help="skip the binary blocks")
    t1.add_argument("--workers", type=int, default=None)
    t1.set_defaults(func=_cmd_table1)

    sw = sub.add_parser("sweep", help="sweep w descending from t for one parameter set (CSV)")
    sw.add_argument("--p", type=int, required=True)
    sw.add_argument("--m", type=int, required=True)
    sw.add_argument("--t", type=int, required=True)
    sw.add_argument("--dist", type=_parse_dist, default="equal")
    sw.add_argument("--trials", type=int, default=1000)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--workers", type=int, default=None)
    sw.set_defaults(func=_cmd_sweep)

    ap = sub.add_parser("alternant-probe", help="alternant p-th-power feasibility rate")
    ap.add_argument("--p", type=int, required=True)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--r", type=int, required=True)
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.set_defaults(func=_cmd_alternant_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PgoppaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
