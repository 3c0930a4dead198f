"""Tests of the benchmark itself: references, checks, digest and tracer.

Run from the repository root: python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import measure  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import pathrw.engine  # noqa: E402
from pathrw.engine import Equal, NotEqual  # noqa: E402
from pathrw.oracle import enumerate_terms, oracle_equal  # noqa: E402

TINY = {"pair-sweep": 60, "deep-terms": 3, "tower-laws": 10, "cli-mix": 40}


def _loop(name: str, tmp_path: Path, api=None, seed: int = 3) -> measure.Loop:
    wl = workloads.WORKLOADS[name](api or workloads.make_api(), seed, tmp_path)
    wl.setup()
    return measure.Loop(wl)


def test_reference_verdicts_match_the_oracle_on_small_terms():
    ctx = workloads.triangle_context()
    terms = list(enumerate_terms(ctx, 4))
    for s, t in itertools.product(terms, repeat=2):
        assert ref.equal(s, t, workloads.TRIANGLE) == oracle_equal(s, t, ctx)


def test_reference_normalizer_matches_pathrw():
    ctx = workloads.triangle_context()
    for rules, strategy in itertools.product(ref.RULES, ("leftmost-innermost", "leftmost-outermost")):
        rs = workloads._rules(rules)
        for t in enumerate_terms(ctx, 5):
            nf, trace = pathrw.engine.normalize(t, rs, ctx, strategy)
            ref_nf, ref_trace = ref.normalize(t, rules, strategy, workloads.TRIANGLE)
            assert nf == ref_nf
            assert [(s.rule, s.position) for s in trace.steps] == [(r, p) for r, p, _ in ref_trace]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_has_no_failures(name, tmp_path):
    loop = _loop(name, tmp_path)
    for i in range(TINY[name]):
        loop.one(i)
    assert loop.failed == []
    assert loop.n == TINY[name]


@pytest.mark.parametrize("name", sorted(TINY))
def test_trace_digest_repeats_for_a_seed(name, tmp_path):
    digests = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        (tmp_path / sub).mkdir()
        loop = _loop(name, tmp_path / sub, seed=seed)
        for i in range(min(TINY[name], loop.wl.digest_ops)):
            loop.one(i)
        digests.append(loop.digest.hexdigest())
    assert digests[0] == digests[1] != digests[2]


def _patched_api(**overrides) -> SimpleNamespace:
    api = workloads.make_api()
    for name, fn in overrides.items():
        setattr(api, name, fn)
    return api


def test_planted_wrong_verdict_is_a_failure(tmp_path):
    real = pathrw.engine.decide_rw_equal

    def flipped(s, t, rs, ctx):
        verdict = real(s, t, rs, ctx)
        return NotEqual("planted") if isinstance(verdict, Equal) else verdict

    loop = _loop("pair-sweep", tmp_path, _patched_api(decide_rw_equal=flipped))
    equal_ops = 0
    for i in range(40):
        s, t, _ = loop.wl.make(i)
        equal_ops += ref.equal(s, t, workloads.TRIANGLE)
        loop.one(i)
    assert equal_ops > 0
    assert len(loop.failed) == equal_ops


def test_corrupted_witness_is_a_failure(tmp_path):
    real = pathrw.engine.decide_rw_equal

    def corrupted(s, t, rs, ctx):
        verdict = real(s, t, rs, ctx)
        if isinstance(verdict, Equal) and verdict.witness.steps:
            steps = list(verdict.witness.steps)
            steps[0] = dataclasses.replace(steps[0], position=steps[0].position + (0,))
            return Equal(dataclasses.replace(verdict.witness, steps=tuple(steps)))
        return verdict

    api = _patched_api(decide_rw_equal=corrupted)
    loop = _loop("pair-sweep", tmp_path, api)
    corrupted_ops = 0
    for i in range(40):
        s, t, rules = loop.wl.make(i)
        verdict = real(s, t, workloads._rules(rules), loop.wl.ctx)
        corrupted_ops += isinstance(verdict, Equal) and bool(verdict.witness.steps)
        loop.one(i)
    assert corrupted_ops > 0
    assert len(loop.failed) == corrupted_ops


def test_traced_pass_reports_every_layer_and_restores_pathrw(tmp_path):
    original = pathrw.engine.first_redex
    loop = _loop("tower-laws", tmp_path)
    result = measure._trace(loop, Tracer(measure.OBSERVERS), Tracer(), 5, 0)
    assert pathrw.engine.first_redex is original
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(measure.PER_LAYER)
    assert result["metrics"]["groupoid.run_laws.checks"]["value"] == 50
    assert result["metrics"]["engine.contract_once.calls"]["value"] > 0
    assert "terms.endpoints" in result["wrapped"]
    assert "rules.match_pattern" not in result["wrapped"]


def test_failure_only_under_tracing_is_reported(tmp_path):
    original = pathrw.engine.first_redex
    real = pathrw.engine.decide_rw_equal

    def fragile(s, t, rs, ctx):
        if pathrw.engine.first_redex is not original:
            raise RecursionError("planted")
        return real(s, t, rs, ctx)

    loop = _loop("pair-sweep", tmp_path, _patched_api(decide_rw_equal=fragile))
    result = measure._trace(loop, Tracer(measure.OBSERVERS), Tracer(), 10, 0)
    assert result["traced_only_failures"] == list(range(10))
    assert result["failed"] == 10 and result["attempted"] == 20


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_command_prints_the_contract_line():
    out = _run(ROOT, "--workload", "tower-laws", "--seed", "5", "--seconds", "0", "--trace", "0")
    assert out.returncode == 0, out.stderr
    final = json.loads(out.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(final["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(v["value"] > 0 for v in final["metrics"].values())
    info = json.loads(out.stdout.splitlines()[-2].removeprefix("info: "))
    assert info["src_lines"] > 0 and info["nproc"] >= 1 and info["trace_digest"]


def test_per_layer_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (unit, _) in measure.PER_LAYER.items()
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    out = _run(tmp_path, "--workload", "pair-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
