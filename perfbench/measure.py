"""One workload process: set up, warm up, run the closed loop, report.

``run.py`` starts this module as a child process per sample, so import
time, set-up time and peak memory belong to the workload alone. The child
writes ``ready`` on stdout after its warm-up op; that instant ends the
set-up interval ``run.py`` times. It then writes the slowdown the ruler
measures in the same process, by which ``run.py`` scales that interval.
A ``setup`` child stops there. A
``measure`` child then runs ops for the given seconds with tracing off; a
``trace`` child spends them alternating untraced and traced passes over a
fixed set of ops. Either prints one JSON line with its results.
"""

from __future__ import annotations

import hashlib
import json
from array import array
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import ruler

WARMUP_S = 1.0
# Ops one run can time. The arrays are allocated in full up front, so the
# process's memory does not grow with how many ops a faster program fits
# into the run.
CAPACITY = 250_000
PROPS_OPS = 2_000  # leading ops whose input properties are tallied
RULER_EVERY_S = 0.02
RULER_WINDOW = 15
RULER_REF_S = 0.001  # the ruler's time at reference speed
SETUP_RULER_RUNS = 40

# Per-layer metrics from the traced passes. Each maps to (unit, how to read
# it from the tracer). Self times and counts are per traced op.
SELF = "self"
SETUP_SELF = "setup self"  # self time during one set-up, not per op
CALLS = "calls"
COUNTER = "counter"
PER_LAYER = {
    "terms.endpoints.calls": ("count/op", CALLS),
    "terms.endpoints.self_s": ("s/op", SELF),
    "terms.replace_at.self_s": ("s/op", SELF),
    "rules.first_redex.calls": ("count/op", CALLS),
    "rules.first_redex.self_s": ("s/op", SELF),
    "rules.first_redex.hit_ratio": ("ratio", "hit_ratio"),
    "rules.build_template.self_s": ("s/op", SELF),
    "rules.match_redexes.calls": ("count/op", CALLS),
    "rules.match_redexes.self_s": ("s/op", SELF),
    "engine.normalize.self_s": ("s/op", SELF),
    "engine.normalize.steps": ("count/op", COUNTER),
    "engine.canonical_derivation.self_s": ("s/op", SELF),
    "engine.canonical_derivation.steps": ("count/op", COUNTER),
    "engine.canonical_derivation.reverse_steps": ("count/op", COUNTER),
    "engine.decide_rw_equal.self_s": ("s/op", SELF),
    "engine.decide_rw_equal.witness_share": ("ratio", "witness_share"),
    "engine.replay_derivation.self_s": ("s/op", SELF),
    "engine.replay_derivation.steps": ("count/op", COUNTER),
    "engine.contract_once.calls": ("count/op", CALLS),
    "engine.contract_once.self_s": ("s/op", SELF),
    "engine.derivation_to_path.self_s": ("s/op", SELF),
    "oracle.word.calls": ("count/op", CALLS),
    "oracle.word.self_s": ("s/op", SELF),
    "oracle.word.letters": ("count/op", COUNTER),
    "oracle.enumerate_terms.self_s": ("s", SETUP_SELF),
    "oracle.check_confluence.self_s": ("s/op", SELF),
    "oracle.check_confluence.peaks": ("count/op", COUNTER),
    "groupoid.run_laws.self_s": ("s/op", SELF),
    "groupoid.run_laws.checks": ("count/op", COUNTER),
    "script.parse_script.self_s": ("s/op", SELF),
    "script.parse_path_expr.calls": ("count/op", CALLS),
    "script.parse_path_expr.self_s": ("s/op", SELF),
    "serialize.derivation_to_doc.self_s": ("s/op", SELF),
    "serialize.doc_to_json.self_s": ("s/op", SELF),
    "serialize.doc_from_json.self_s": ("s/op", SELF),
    "serialize.replay_document.self_s": ("s/op", SELF),
    "cli.main.self_s": ("s/op", SELF),
    "lam.validate_axiom_atom.self_s": ("s/op", SELF),
    "trace.overhead_ratio": ("ratio", "overhead"),
}


def _add(counters: dict, key: str, amount: float) -> None:
    counters[key] = counters.get(key, 0) + amount


# Counts recorded at the span boundary: (counters, call args, result).
OBSERVERS = {
    "rules.first_redex": lambda c, a, r: _add(c, "rules.first_redex.hits", r is not None),
    "engine.normalize": lambda c, a, r: _add(c, "engine.normalize.steps", len(r[1].steps)),
    "engine.canonical_derivation": lambda c, a, r: (
        _add(c, "engine.canonical_derivation.steps", len(r.steps)),
        _add(
            c,
            "engine.canonical_derivation.reverse_steps",
            sum(step.direction == "reverse" for step in r.steps),
        ),
    ),
    "engine.replay_derivation": lambda c, a, r: _add(c, "engine.replay_derivation.steps", len(a[0].steps)),
    "oracle.word": lambda c, a, r: _add(c, "oracle.word.letters", len(r.letters)),
    "oracle.check_confluence": lambda c, a, r: _add(c, "oracle.check_confluence.peaks", len(r)),
    "groupoid.run_laws": lambda c, a, r: _add(c, "groupoid.run_laws.checks", len(r.reports)),
}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q a multiple of 10) by ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[q // 10 - 1]


class Loop:
    """Runs ops, checks them, and keeps latencies, failures and the digest."""

    def __init__(self, workload):
        self.wl = workload
        self.latencies = array("d", bytes(8 * CAPACITY))
        self.n = 0
        self.failed: list[int] = []
        self.digest = hashlib.sha256()
        self.full_checks = True  # run the full checks and feed the digest
        self.props: dict[str, list] = {}

    def one(self, i: int, call=None) -> bool:
        """Run op ``i``; returns whether it passed every check."""
        wl = self.wl
        inp = wl.make(i)
        start = time.perf_counter()
        try:
            out = call(i, wl.run, inp) if call else wl.run(inp)
        except Exception:  # an op that raises is a failed op, not a crash
            self._record(time.perf_counter() - start)
            self._fail(i, [traceback.format_exc(limit=3)])
            return False
        self._record(time.perf_counter() - start)
        full = self.full_checks and i < wl.digest_ops
        try:
            problems, lines = wl.check(inp, out, full)
        except Exception:
            problems, lines = [traceback.format_exc(limit=3)], []
        if full:
            for line in lines:
                self.digest.update(line.encode() + b"\n")
        if self.n <= PROPS_OPS:
            for key, value in wl.properties(inp, out).items():
                self.props.setdefault(key, []).append(value)
        if problems:
            self._fail(i, problems)
            return False
        return True

    def _record(self, seconds: float) -> None:
        self.latencies[self.n] = seconds
        self.n += 1

    def timed(self) -> array:
        return self.latencies[: self.n]

    def _fail(self, i: int, problems: list[str]) -> None:
        self.failed.append(i)
        if len(self.failed) <= 5:
            print(f"op {i} failed: " + "; ".join(problems), file=sys.stderr)

    def shares(self) -> dict:
        """Share of each label, or quantiles of each number, over the tallied ops."""
        out = {}
        for key, values in self.props.items():
            if all(isinstance(v, (int, float)) for v in values):
                qs = statistics.quantiles(values, n=10) if len(values) > 1 else values * 9
                out[key] = {"p10": qs[0], "p50": statistics.median(values), "p90": qs[8]}
            else:
                counts: dict[str, int] = {}
                for v in values:
                    counts[v] = counts.get(v, 0) + 1
                out[key] = {k: n / len(values) for k, n in sorted(counts.items())}
        return out


def _warm_up(wl) -> list[float]:
    """Run untimed ops (from their own input stream) before measuring.

    A fresh process runs measurably slower for its first second or so;
    these ops absorb that without entering set-up time. Returns the ruler
    times taken between them.
    """
    ruler_times = []
    end = time.perf_counter() + WARMUP_S
    i = -2
    while time.perf_counter() < end:
        wl.run(wl.make(i))
        ruler_times.append(ruler.run_once())
        i -= 1
    return ruler_times


def _ready() -> None:
    print(f"ready {time.time()!r}", flush=True)


def child(role: str, workload_name: str, seed: int, seconds: float, out_dir: Path) -> int:
    """Entry point of a workload process; ``role`` is setup, measure or trace."""
    os.environ.pop("PATHRW_SEED", None)  # it would override the laws seeds
    import workloads
    from tracer import Tracer

    api = workloads.make_api()
    setup_tracer = Tracer(OBSERVERS) if role == "trace" else None
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        wl = workloads.WORKLOADS[workload_name](api, seed, Path(workdir))
        if setup_tracer:
            setup_tracer.install("pathrw", api)
        wl.setup()
        if setup_tracer:
            setup_tracer.uninstall()
        wl.run(wl.make(-1))  # the warm-up op that ends set-up
        _ready()
        # The machine's speed in this process, to scale its set-up time by.
        setup_ruler = statistics.median(ruler.run_once() for _ in range(SETUP_RULER_RUNS))
        print(f"slowdown {setup_ruler / RULER_REF_S!r}", flush=True)
        if role == "setup":
            return 0
        ruler_times = _warm_up(wl)
        loop = Loop(wl)
        if role == "measure":
            result = _measure(loop, seconds, ruler_times)
        else:
            tracer = Tracer(OBSERVERS)
            result = _trace(loop, tracer, setup_tracer, wl.trace_ops, seconds)
            stem = f"spans-{workload_name}-seed{seed}"
            setup_tracer.write(out_dir / f"{stem}-setup.jsonl")
            tracer.write(out_dir / f"{stem}.jsonl")
    result["trace_digest"] = loop.digest.hexdigest()
    result["properties"] = loop.shares()
    result["failed_ops"] = loop.failed[:20]
    print(json.dumps(result), flush=True)
    return 0


def _measure(loop: Loop, seconds: float, ruler_times: list[float]) -> dict:
    """Closed loop for ``seconds``; times come back in reference-speed units.

    After each op, at most every RULER_EVERY_S, the ruler runs once. An op's
    slowdown is the median of the last RULER_WINDOW ruler times over
    RULER_REF_S, and its latency is divided by it, so a machine that is
    busier than usual for a while moves the figures much less.
    """
    scaled = array("d", bytes(8 * CAPACITY))
    end = time.perf_counter() + seconds
    last_ruler = 0.0
    i = 0
    while loop.n < CAPACITY and (i < loop.wl.digest_ops or time.perf_counter() < end):
        loop.one(i)
        i += 1
        if time.perf_counter() - last_ruler >= RULER_EVERY_S:
            ruler_times.append(ruler.run_once())
            last_ruler = time.perf_counter()
        slowdown = statistics.median(ruler_times[-RULER_WINDOW:]) / RULER_REF_S
        scaled[loop.n - 1] = loop.latencies[loop.n - 1] / slowdown
    # Read before sorting the samples below, which allocates per sample.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat, scaled = loop.timed(), scaled[: loop.n]
    return {
        "attempted": len(lat),
        "failed": len(loop.failed),
        "samples": len(lat),
        "ruler_samples": len(ruler_times),
        "slowdown": statistics.median(ruler_times) / RULER_REF_S,
        "raw": {
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_p90_ms": 1000 * percentile(lat, 90),
        },
        "ops_per_s": len(scaled) / sum(scaled),
        "latency_p50_ms": 1000 * statistics.median(scaled),
        "latency_p90_ms": 1000 * percentile(scaled, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def _trace(loop: Loop, tracer, setup_tracer, ops: int, seconds: float) -> dict:
    """Alternate untraced and traced passes over the same ops for ``seconds``.

    Every pass runs ops 0..ops-1, so counts per op repeat exactly for a seed,
    and self times are averaged over the traced passes. The first pass alone
    feeds the digest and runs the full checks.
    """
    end = time.perf_counter() + seconds
    elapsed = {False: 0.0, True: 0.0}
    failing: dict[bool, set[int]] = {False: set(), True: set()}
    passes = 0
    while passes == 0 or time.perf_counter() < end:
        for traced in (False, True):
            if traced:
                tracer.install("pathrw", loop.wl.api)
            first = loop.n
            try:
                for i in range(ops):
                    if not loop.one(i, tracer.run_op if traced else None):
                        failing[traced].add(i)
            finally:
                if traced:
                    tracer.uninstall()
            elapsed[traced] += sum(loop.latencies[first : loop.n])
            loop.full_checks = False
        passes += 1
    traced_only = sorted(failing[True] - failing[False])
    if traced_only:
        print(f"ops failing only when traced: {traced_only[:20]}", file=sys.stderr)
    n = ops * passes
    metrics = {}
    for name, (unit, kind) in PER_LAYER.items():
        span = name.rsplit(".", 1)[0]
        if kind == SELF:
            value = tracer.self_time.get(span, 0.0) / n
        elif kind == SETUP_SELF:
            value = setup_tracer.self_time.get(span, 0.0)
        elif kind == CALLS:
            value = tracer.calls.get(span, 0) / n
        elif kind == COUNTER:
            value = tracer.counters.get(name, 0) / n
        elif kind == "hit_ratio":
            calls = tracer.calls.get(span, 0)
            value = tracer.counters.get("rules.first_redex.hits", 0) / calls if calls else 0.0
        elif kind == "witness_share":
            total = tracer.total.get(span, 0.0)
            inner = tracer.pair_time.get((span, "engine.canonical_derivation"), 0.0)
            value = inner / total if total else 0.0
        else:
            value = elapsed[True] / elapsed[False]
        metrics[name] = {"value": value, "unit": unit}
    all_self = sum(tracer.self_time.values())
    shares = sorted(((t / all_self, name) for name, t in tracer.self_time.items()), reverse=True)
    return {
        "attempted": loop.n,
        "failed": len(loop.failed),
        "passes": passes,
        "traced_only_failures": traced_only,
        "metrics": metrics,
        "self_time_shares": {name: share for share, name in shares},
        "wrapped": sorted(tracer.wrapped),
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }
