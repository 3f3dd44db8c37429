"""Spans around the calls into each pgoppa module, recorded from outside.

Nothing in the package is edited.  Each public name is wrapped where the
calling module looks it up (``pgoppa.decoder.weak_popov_reduce`` is the name
``decode`` resolves, ``is_irreducible`` is looked up both in
``pgoppa.polyring`` and in ``pgoppa.goppa``), so a call made through any of
those sites opens a span.  Spans are kept in memory as
``[name, start_ns, end_ns, parent, op, raised]`` and written out once, when
the run ends.  A span's self time is its duration minus the durations of its
direct children; calls nest, so children never overlap.

Only the process that installed the wrappers records: a fork-started pool
worker inherits the wrappers but calls straight through them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter_ns

# span name -> the (module, attribute path) sites where callers look it up
SPAN_SITES: dict[str, list[tuple[str, str]]] = {
    "polyring.is_irreducible": [("pgoppa.polyring", "is_irreducible"), ("pgoppa.goppa", "is_irreducible")],
    "polyring.random_irreducible": [("pgoppa.goppa", "random_irreducible")],
    "polyring.pth_root_mod": [("pgoppa.decoder", "pth_root_mod")],
    "polyring.inv_mod": [
        ("pgoppa.decoder", "inv_mod"),
        ("pgoppa.goppa", "inv_mod"),
        ("pgoppa.alternant", "inv_mod"),
    ],
    "polyring.is_square_free": [("pgoppa.goppa", "is_square_free")],
    "modp.kernel_mod_p": [("pgoppa.modp", "kernel_mod_p")],
    "modp.inv_mod_p": [("pgoppa.modp", "inv_mod_p")],
    "goppa.build_code": [("pgoppa.goppa", "build_code"), ("pgoppa.experiments", "build_code")],
    "goppa.GoppaCode": [("pgoppa.goppa", "GoppaCode.__init__")],
    "goppa.random_codeword": [("pgoppa.goppa", "GoppaCode.random_codeword")],
    "goppa.sample_error": [("pgoppa.goppa", "sample_error"), ("pgoppa.experiments", "sample_error")],
    "goppa.syndrome_from_word": [("pgoppa.goppa", "GoppaCode.syndrome_from_word")],
    "popov.weak_popov_reduce": [("pgoppa.decoder", "weak_popov_reduce")],
    "decoder.decode": [("pgoppa.decoder", "decode"), ("pgoppa.experiments", "decode")],
    "decoder.assemble_locator": [("pgoppa.decoder", "assemble_locator")],
    "decoder.find_roots_multiplicities": [("pgoppa.decoder", "find_roots_multiplicities")],
    "decoder.verify_sign_convention": [("pgoppa.decoder", "verify_sign_convention")],
    "alternant.feasibility_probe": [("pgoppa.alternant", "feasibility_probe")],
    "alternant.random_restricted_alternant": [("pgoppa.alternant", "random_restricted_alternant")],
    "alternant.alternant_syndrome": [("pgoppa.alternant", "alternant_syndrome")],
    "alternant.try_build_alternant_lattice": [("pgoppa.alternant", "try_build_alternant_lattice")],
    "fields.make_field": [
        ("pgoppa.fields", "make_field"),
        ("pgoppa.goppa", "make_field"),
        ("pgoppa.alternant", "make_field"),
    ],
    "experiments.run_trials": [("pgoppa.experiments", "run_trials")],
}

# counted, not spanned: one span per draw would dwarf the work being drawn for
COUNT_SITES: dict[str, list[tuple[str, str]]] = {
    "rng.next_u64": [("pgoppa.rng", "SplitMix64.next_u64")],
}

# span name -> (count name, function of the call's result) tallied per call
NOTES = {
    "decoder.decode": ("decoder.candidates", lambda out: len(out.candidates)),
    "alternant.try_build_alternant_lattice": ("alternant.feasible", lambda lat: lat is not None),
}

# spans whose time is reported per set-up instead of per operation
SETUP_SPANS = ("decoder.verify_sign_convention", "fields.make_field")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics: name -> (unit, better).  A name "<span>.<stat>" with stat
# calls, ms or self_ms is that span's total per operation; spans in
# SETUP_SPANS report their "ms" per set-up instead.
PER_LAYER: dict[str, tuple[str, str]] = {
    "polyring.is_irreducible.calls": ("calls/op", "lower"),
    "polyring.is_irreducible.self_ms": ("ms/op", "lower"),
    "polyring.random_irreducible.ms": ("ms/op", "lower"),
    "polyring.irreducible_yield": ("ratio", "higher"),
    "polyring.pth_root_mod.calls": ("calls/op", "lower"),
    "polyring.pth_root_mod.self_ms": ("ms/op", "lower"),
    "polyring.inv_mod.calls": ("calls/op", "lower"),
    "polyring.inv_mod.self_ms": ("ms/op", "lower"),
    "polyring.is_square_free.self_ms": ("ms/op", "lower"),
    "modp.kernel_mod_p.self_ms": ("ms/op", "lower"),
    "modp.inv_mod_p.self_ms": ("ms/op", "lower"),
    "goppa.build_code.ms": ("ms/op", "lower"),
    "goppa.GoppaCode.ms": ("ms/op", "lower"),
    "goppa.random_codeword.ms": ("ms/op", "lower"),
    "goppa.sample_error.ms": ("ms/op", "lower"),
    "goppa.syndrome_from_word.calls": ("calls/op", "lower"),
    "goppa.syndrome_from_word.self_ms": ("ms/op", "lower"),
    "popov.weak_popov_reduce.calls": ("calls/op", "lower"),
    "popov.weak_popov_reduce.self_ms": ("ms/op", "lower"),
    "decoder.decode.ms": ("ms/op", "lower"),
    "decoder.decode.self_ms": ("ms/op", "lower"),
    "decoder.assemble_locator.calls": ("calls/op", "lower"),
    "decoder.find_roots_multiplicities.calls": ("calls/op", "lower"),
    "decoder.find_roots_multiplicities.self_ms": ("ms/op", "lower"),
    "decoder.row_reject_ratio": ("ratio", "lower"),
    "decoder.verified_per_row": ("ratio", "higher"),
    "decoder.verify_sign_convention.ms": ("ms", "lower"),
    "alternant.random_restricted_alternant.self_ms": ("ms/op", "lower"),
    "alternant.alternant_syndrome.self_ms": ("ms/op", "lower"),
    "alternant.try_build_alternant_lattice.self_ms": ("ms/op", "lower"),
    "alternant.feasible_ratio": ("ratio", "higher"),
    "fields.make_field.ms": ("ms", "lower"),
    "experiments.run_trials.self_ms": ("ms/op", "lower"),
    "rng.next_u64.calls": ("calls/op", "lower"),
    "trace.span_coverage": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# metrics not read off one span: name -> (names they need, value from Stats)
DERIVED = {
    "polyring.irreducible_yield": (
        ("goppa.build_code", "polyring.is_irreducible"),
        lambda st: _ratio(st.calls["goppa.build_code"], st.calls["polyring.is_irreducible"]),
    ),
    "decoder.row_reject_ratio": (
        ("decoder.assemble_locator",),
        lambda st: _ratio(st.raised["decoder.assemble_locator"], st.calls["decoder.assemble_locator"]),
    ),
    "decoder.verified_per_row": (
        ("decoder.decode", "decoder.assemble_locator"),
        lambda st: _ratio(st.counts["decoder.candidates"], st.calls["decoder.assemble_locator"]),
    ),
    "alternant.feasible_ratio": (
        ("alternant.try_build_alternant_lattice",),
        lambda st: _ratio(st.counts["alternant.feasible"], st.calls["alternant.try_build_alternant_lattice"]),
    ),
    "rng.next_u64.calls": (("rng.next_u64",), lambda st: _ratio(st.counts["rng.next_u64"], st.n_ops)),
    "trace.span_coverage": ((), lambda st: st.coverage),
}


class Recorder:
    """In-memory span store for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op: int | None = None  # operation id; None while setting up
        self.enabled = True
        os.register_at_fork(after_in_child=self.stop)

    def stop(self) -> None:
        self.enabled = False

    def span_wrapper(self, name: str, fn, note=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if note is not None and self.op is not None:
                self.counts[note[0]] += note[1](result)
            return result

        return traced

    def count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled and self.op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "raised"], "spans": self.spans}, fh)


def _resolve(module: str, path: str):
    """(owner, attribute) for a site, or None when the name no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


def install(rec: Recorder) -> tuple[list[str], list[str]]:
    """Wrap every site; returns (absent names, absent sites).

    A name is absent when none of its sites exists any more; its metrics are
    then left out of the report, never shown as zero.
    """
    absent_names, absent_sites = [], []
    sites = [(n, s, "span") for n, ss in SPAN_SITES.items() for s in ss]
    sites += [(n, s, "count") for n, ss in COUNT_SITES.items() for s in ss]
    found: set[str] = set()
    wrapped: dict[int, object] = {}
    for name, (module, path), kind in sites:
        site = _resolve(module, path)
        if site is None:
            absent_sites.append(f"{module}.{path}")
            continue
        owner, attr = site
        fn = getattr(owner, attr)
        key = id(fn)
        if key not in wrapped:
            if kind == "span":
                wrapped[key] = rec.span_wrapper(name, fn, NOTES.get(name))
            else:
                wrapped[key] = rec.count_wrapper(name, fn)
        setattr(owner, attr, wrapped[key])
        found.add(name)
    for name in list(SPAN_SITES) + list(COUNT_SITES):
        if name not in found:
            absent_names.append(name)
    return absent_names, absent_sites


class Stats:
    """Per-name totals over the spans of one traced process.  Durations are
    scaled like the operation latencies: by the host-speed factor of the
    operation they fall in (`scale[op]`), or of set-up."""

    def __init__(self, rec: Recorder, scale: list[float], setup_scale: float, entry: str):
        self.n_ops = len(scale)
        self.counts = rec.counts
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.ns: defaultdict = defaultdict(float)
        self.self_ns: defaultdict = defaultdict(float)
        self.setup_ms: defaultdict = defaultdict(float)
        spans = rec.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, op, raised in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        entry_child_ns = entry_ns = 0.0
        for i, (name, start, end, parent, op, raised) in enumerate(spans):
            dur = end - start
            if op is None:
                self.setup_ms[name] += dur * setup_scale / 1e6
                continue
            self.calls[name] += 1
            self.raised[name] += raised
            self.ns[name] += dur * scale[op]
            self.self_ns[name] += (dur - child_ns[i]) * scale[op]
            if parent < 0 and name == entry:
                entry_ns += dur
                entry_child_ns += child_ns[i]
        # share of the entry call's time spent in the layer spans below it
        self.coverage = _ratio(entry_child_ns, entry_ns)

    def per_op(self, name: str, stat: str) -> float:
        if stat == "calls":
            total = self.calls[name]
        else:
            total = (self.ns if stat == "ms" else self.self_ns)[name] / 1e6
        return _ratio(total, self.n_ops)


def per_layer_metrics(stats: Stats, absent: list[str]) -> dict[str, dict]:
    """Every per-layer metric whose names exist, except the tracing overhead,
    which needs an untraced run to compare with."""
    out = {}
    for metric, (unit, _better) in PER_LAYER.items():
        if metric == "trace.overhead_ratio":
            continue
        if metric in DERIVED:
            needs, fn = DERIVED[metric]
        else:
            span, stat = metric.rsplit(".", 1)
            needs = (span,)
            if span in SETUP_SPANS:
                fn = lambda st, span=span: st.setup_ms[span]
            else:
                fn = lambda st, span=span, stat=stat: st.per_op(span, stat)
        if not any(n in absent for n in needs):
            out[metric] = {"value": fn(stats), "unit": unit}
    return out
