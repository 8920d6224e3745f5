"""Benchmark of the agdh protocol kit: whole-run cost and key-establishment
step latency, with per-layer self times from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``agdh`` from ``src``.  It
takes cold samples, one at a time, each in a fresh interpreter
(``sample.py``), until the next sample would overrun ``--seconds``: the
subgroup-check memo in ``group_arith`` is process-wide, and every
``agdh run`` pays it cold.

Times are CPU seconds of the sample process rescaled to a reference host,
on which a fixed reference kernel takes ``sample.REF_S`` seconds; see
``sample.py`` for why and how.  Raw CPU times are printed alongside.

``--trace 0`` samples distinct seeded inputs and reports the end-to-end
metrics as medians.  ``--trace 1`` alternates untraced and traced samples
of one input, reports every per-layer metric, the tracing overhead, and
writes the first traced sample's spans to ``perfbench/out/NAME.spans``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` counts key derivations and ``failed`` the ones that failed,
so ``failed / attempted`` is ``key_error_ratio``; a sample that crashes or
times out fails the run.  The exit code is 0 only if every output checked
out; 2, with no result line, means there is no program to run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

# A run, set-up included, must end within 180 s: no sample outlives this.
RUN_LIMIT_S = 170
# End-to-end step latencies and the sample's step lists they come from.
STEP_METRICS = {"announce_ms": "announce", "member_key_ms": "member_key",
                "contribution_ms": "contribution"}


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it,
    by nearest rank, or None if there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def spawn(workload: str, seed: int, trace: bool, spans: str | None,
          deadline: float) -> dict:
    """Run one sample in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "sample.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise RuntimeError(f"sample {workload} seed={seed} exited"
                           f" {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def take_samples(seconds: float, plan) -> list[dict]:
    """Call plan(i) for i = 0, 1, ... until the next call would overrun
    ``seconds``; plan(i) returns a list of samples (at least one call)."""
    start = time.monotonic()
    samples, durations = [], []
    while True:
        t = time.monotonic()
        samples += plan(len(durations))
        durations.append(time.monotonic() - t)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return samples


def describe(name: str, unit: str, values: list[float]) -> str:
    line = f"  {name:16s} median {statistics.median(values):.6g} {unit}"
    high = tail(values)
    line += (f"  p{high[0]} {high[1]:.6g} {unit}" if high
             else "  (no percentile: fewer than 11 samples)")
    return line + f"  n={len(values)}"


def end_to_end(workload: str, seed: int, seconds: float,
               deadline: float) -> tuple[dict, list[dict]]:
    samples = take_samples(seconds, lambda i: [
        spawn(workload, workloads.sample_seed(seed, i), False, None, deadline)])
    runs = [s["run_s"] for s in samples]
    if workload == "keying_m50":
        runs = [g for s in samples for g in s["group_s"]]
    series = {
        "run_s": ("s", runs),
        "setup_s": ("s", [s["setup_s"] for s in samples]),
        "peak_rss_mb": ("MB", [s["peak_rss_mb"] for s in samples]),
    }
    for name, step in STEP_METRICS.items():
        series[name] = ("ms", [v * 1e3 for s in samples for v in s["steps"][step]])
    print(f"workload {workload} seed {seed}: {len(samples)} cold samples")
    for name, (unit, values) in series.items():
        print(describe(name, unit, values))
    if workload in workloads.SIM_WORKLOADS:
        for part in ("sim_s", "audit_s", "render_s"):
            print(describe(f"  {part}", "s", [s[part] for s in samples]))
    print(describe("  raw cpu_run_s", "s", [s["cpu_run_s"] for s in samples]))
    print(describe("  raw ref_s", "s", [r for s in samples for r in s["ref_s"]]))
    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, (unit, values) in series.items()}
    return metrics, samples


def traced(workload: str, seed: int, seconds: float,
           deadline: float) -> tuple[dict, list[dict]]:
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{workload}.spans")
    input_seed = workloads.sample_seed(seed, 0)
    samples = take_samples(seconds, lambda i: [
        spawn(workload, input_seed, False, None, deadline),
        spawn(workload, input_seed, True, spans_path if i == 0 else None,
              deadline)])
    plain = [s for s in samples if s["trace"] is None]
    with_trace = [s for s in samples if s["trace"] is not None]
    metrics, problems = layers.per_layer(plain, with_trace)
    print(f"workload {workload} seed {seed} (input seed {input_seed}):"
          f" {len(plain)} untraced and {len(with_trace)} traced samples,"
          f" spans in {os.path.relpath(spans_path, ROOT)}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"  SELF-CHECK FAILED: {problem}")
    return metrics, samples + [{"keys": 0, "failed": 1, "failures": [p]}
                               for p in problems]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "agdh", "__init__.py")):
        print(f"error: no agdh sources under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once, so no sample's set-up time pays for compilation.
    if not compileall.compile_dir(SRC, quiet=1) or \
            not compileall.compile_dir(HERE, quiet=1, maxlevels=0):
        print("error: agdh sources do not compile", file=sys.stderr)
        return 2

    measure = traced if args.trace else end_to_end
    try:
        metrics, samples = measure(args.workload, args.seed, args.seconds,
                                   deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    attempted = sum(s["keys"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    for s in samples:
        for failure in s["failures"]:
            print(f"  FAILURE: {failure}")
    print(f"  key_error_ratio  {failed / max(attempted, 1):.6g}"
          f"  ({failed} failed of {attempted} keys)")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
