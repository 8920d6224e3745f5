"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench

Exact counts must repeat across two samples of the same seed, the tracer
must reach every exponentiation the program meters, and the inputs must be
valid scenarios.  Samples run in subprocesses because the tracer rewrites
the program's module bindings for the life of a process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from agdh.scenario import parse_scenario  # noqa: E402
from agdh.simnet import CrashAt, HealAt, JoinAt, LeaveAt, PartitionAt  # noqa: E402


def sample(workload: str, seed: int, trace: bool, spans: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), "--workload",
           workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("seed", range(20))
def test_churn_schedule_only_touches_live_nodes(seed):
    text = workloads.churn_scenario(seed)
    assert text == workloads.churn_scenario(seed)
    live = set(range(1, 31))
    joined = set()
    partitioned = False
    for entry in parse_scenario(text):
        if isinstance(entry, JoinAt):
            assert entry.node_id not in live | joined
            joined.add(entry.node_id)
            live.add(entry.node_id)
        elif isinstance(entry, (LeaveAt, CrashAt)):
            assert entry.node_id in live
            live.remove(entry.node_id)
        elif isinstance(entry, PartitionAt):
            assert not partitioned
            assert set().union(*entry.cells) == live
            partitioned = True
        elif isinstance(entry, HealAt):
            assert partitioned
            partitioned = False
    assert not partitioned
    assert joined


def test_inputs_depend_only_on_the_seed():
    assert workloads.sample_seed(3, 1) == workloads.sample_seed(3, 1)
    assert workloads.sample_seed(3, 1) != workloads.sample_seed(3, 2)
    assert workloads.churn_scenario(1) != workloads.churn_scenario(2)
    for name in workloads.SIM_WORKLOADS:
        assert workloads.sim_inputs(name, 5) == workloads.sim_inputs(name, 5)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    for n in (11, 12, 50, 99, 100, 101, 2450):
        p, value = run.tail(list(range(n)))
        assert sum(1 for v in range(n) if v > value) >= 10
        assert 0 <= p < 100


@pytest.mark.parametrize("workload", ["toy_lossy", "keying_m50"])
def test_counts_repeat_exactly_for_one_seed(workload):
    first, second = (sample(workload, 7, trace=True) for _ in range(2))
    plain = sample(workload, 7, trace=False)
    assert first["counts"] == second["counts"] == plain["counts"]
    assert first["trace"]["calls"] == second["trace"]["calls"]
    assert first["trace"]["binding_calls"] == second["trace"]["binding_calls"]
    metrics, problems = layers.per_layer([plain], [first, second])
    assert problems == []
    for name in ("group_arith.exp.calls", "group_arith.subgroup_pow",
                 "messages.wire_bytes", "node_fsm.rekeys"):
        assert metrics[name]["value"] > 0, name


@pytest.mark.parametrize("workload", workloads.SIM_WORKLOADS)
def test_traced_exp_calls_equal_program_exp_events(workload):
    traced = sample(workload, 3, trace=True)
    assert traced["failed"] == 0, traced["failures"]
    assert traced["counts"]["exp_events"] > 0
    assert traced["trace"]["calls"]["group_arith.exp"] == \
        traced["counts"]["exp_events"]


def test_spans_nest_and_share_request_within_a_step(tmp_path):
    path = str(tmp_path / "keying.spans")
    traced = sample("keying_m50", 2, trace=True, spans=path)
    names, cols = tracer.read_spans(path)
    # the file also holds the spans of the oracle check after the timed region
    assert len(cols["start"]) >= traced["trace"]["spans"]
    handle = names.index("node_fsm.handle")
    step_request = {}
    for i in range(len(cols["start"])):
        assert cols["start"][i] <= cols["end"][i]
        parent = cols["parent"][i]
        if parent < 0:
            continue
        assert parent < i
        assert cols["start"][parent] <= cols["start"][i]
        assert cols["end"][i] <= cols["end"][parent]
        if cols["name"][parent] == handle:
            step_request[i] = cols["request"][parent]
        elif parent in step_request:
            step_request[i] = step_request[parent]
        if i in step_request:
            assert cols["request"][i] == step_request[i]
    handles = [i for i in range(len(cols["name"])) if cols["name"][i] == handle]
    assert len({cols["request"][i] for i in handles}) == len(handles)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    plain = sample("keying_m50", 1, trace=False)
    traced = sample("keying_m50", 1, trace=True)
    metrics, _ = layers.per_layer([plain], [traced])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, m["unit"]) for name, m in metrics.items()]
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"run_s", "setup_s", "peak_rss_mb"} | set(run.STEP_METRICS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy_lossy",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
