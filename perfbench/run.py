"""pathrw benchmark: verdict throughput, latency, memory and set-up time.

Run from the repository root:

    python3 perfbench/run.py --workload pair-sweep --seed 1 --seconds 10 --trace 0

Workloads: pair-sweep, deep-terms, tower-laws, cli-mix (see workloads.py for
what each stresses and why). One client, one thread, closed loop: each op
waits for its verdict before the next is generated.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

- ``ops_per_s``: completed ops per second of time spent in pathrw calls
  (the untimed reference checks between ops are left out);
- ``latency_p50_ms``, ``latency_p90_ms``: per-op latency over every op of
  the run, failed ones included; the sample count is in the info line;
- ``success_rate``: ops that passed every check over ops attempted (one
  minus the error rate; the failure count itself is ``failed``);
- ``peak_rss_mb``: peak resident memory of the measuring process;
- ``setup_s``: median over seven fresh processes of the time from process
  start to the end of the warm-up op (import, contexts, inputs, one op).

Times are scaled to a reference machine speed measured by ``ruler.py``:
between ops for the loop (see ``measure._measure``), and once per process
right after set-up for ``setup_s``. The unscaled loop figures are in the
info line under ``raw``; ``setup_samples_s`` holds the scaled set-up times.

With ``--trace 1`` a separate process alternates, for the given seconds,
untraced passes and traced passes over the same fixed set of ops; in a
traced pass every cross-module pathrw call is wrapped in a span
(tracer.py). It reports the per-layer metrics listed in measure.py. Spans
are written to ``perfbench/out/spans-<workload>-seed<n>.jsonl``.

Every run prints an ``info:`` line before the result: sample count,
``trace_digest`` (a hash of the formatted traces and witnesses of the first
ops, equal across runs with the same seed and across commits that change no
trace), the shares of the input properties that decide the work, and the
Python version, git SHA, ``nproc`` and ``src/`` line count. The same record
goes to ``perfbench/out/result-<workload>-seed<n>-trace<t>.json``.

The exit code is 0 when a result was printed, 2 when ``src/pathrw`` is not
under the current directory, 1 when a workload process failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("pair-sweep", "deep-terms", "tower-laws", "cli-mix")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150


class ChildFailed(Exception):
    pass


def _spawn(role: str, args, root: Path) -> tuple[float, dict | None]:
    """Run one workload process; returns its scaled set-up time and result."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", role,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    started = time.time()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"{role} process exceeded {CHILD_TIMEOUT_S} s") from None
    lines = stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("ready "):
        raise ChildFailed(f"{role} process exited with code {proc.returncode}")
    setup_s = float(lines[0].split()[1]) - started
    slowdown = float(lines[1].split()[1])
    return setup_s / slowdown, json.loads(lines[-1]) if role != "setup" else None


def _environment(root: Path) -> dict:
    files = sorted((root / "src" / "pathrw").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "python": platform.python_version(),
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pathrw" / "__init__.py").is_file():
        print("error: src/pathrw not found; run from the repository root", file=sys.stderr)
        return 2
    if args.child:
        sys.path.insert(0, str(root / "src"))
        import measure

        return measure.child(args.child, args.workload, args.seed, args.seconds, OUT)

    try:
        if args.trace:
            _, result = _spawn("trace", args, root)
            metrics = result.pop("metrics")
            setups = []
        else:
            setups = [_spawn("setup", args, root)[0] for _ in range(SETUP_SAMPLES - 1)]
            setup_s, result = _spawn("measure", args, root)
            setups.append(setup_s)
            metrics = {
                "ops_per_s": _metric(result.pop("ops_per_s"), "1/s"),
                "latency_p50_ms": _metric(result.pop("latency_p50_ms"), "ms"),
                "latency_p90_ms": _metric(result.pop("latency_p90_ms"), "ms"),
                "success_rate": _metric(1 - result["failed"] / result["attempted"], "ratio"),
                "peak_rss_mb": _metric(result.pop("peak_rss_mb"), "MB"),
                "setup_s": _metric(statistics.median(setups), "s"),
            }
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result.pop("attempted"), result.pop("failed")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setups,
        **result,
        **_environment(root),
    }
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**final, "info": info}, indent=2) + "\n", encoding="utf-8")
    print("info: " + json.dumps(info))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
