"""One cold benchmark sample, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/sample.py --workload NAME --seed N [--trace] [--spans PATH]

Every time is CPU time of this single-threaded process
(``time.process_time``), rescaled to a reference host.  The program does no
I/O, so on an idle machine CPU time equals wall time; on a shared virtual
machine wall time also counts time the hypervisor takes the CPU away, and
even CPU time moves by tens of percent within seconds with the load other
tenants put on the host.  So a :class:`RefClock` times a small fixed
reference kernel at each phase boundary and, untraced, every
``PROBE_EVERY_S`` CPU seconds inside the simulation, keeps the kernel's own
time off the clock, and multiplies each phase's CPU time by ``REF_S`` over
the mean kernel time seen during the phase: the result is what the time
would be on a host that runs the kernel in ``REF_S`` seconds.  Raw CPU
times are reported alongside.

``setup_s`` is the CPU time from interpreter start to the first call into
the program: it covers the import of ``agdh`` (which parses and validates
the PROD group) and input generation.  The sample prints one JSON object
as its last line of standard output.

Sim workloads time ``simnet.run`` + ``oracle.audit_transcript`` +
``Transcript.render()``, the compute behind ``agdh run --out``.  Untraced,
a thin wrapper on ``Node.handle`` also times three kinds of FSM step: a
leader step that builds a keyed announcement, a member step that ends
holding a key, and a leader step that handles a contribution.
``keying_m50`` drives ``Node`` objects directly and times those same steps.
With ``--trace`` every public function of the program is wrapped by
:mod:`tracer` and the sample reports per-layer counts and self times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import hmac
import json
import os
import random
import resource
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The reference kernel does fixed work of the three kinds the program does:
# 1024-bit modular exponentiation, dict-heavy interpreter work, and HMAC.
REF_S = 0.01
PROBE_EVERY_S = 0.2
_REF_MODULUS = (1 << 1024) - 1093337
_REF_EXPONENT = (1 << 160) - 47


def import_program():
    """Import ``agdh`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import agdh
    if not os.path.abspath(agdh.__file__).startswith(SRC + os.sep):
        raise ImportError(f"agdh imported from {agdh.__file__}, not {SRC}")
    return agdh


def reference_s() -> float:
    """CPU seconds the reference kernel takes now."""
    start = time.process_time()
    x = 3
    for i in range(8):
        x = pow(x, _REF_EXPONENT - i, _REF_MODULUS)
    table: dict[int, int] = {}
    for i in range(20_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    for i in range(1_000):
        hmac.new(b"perfbench", i.to_bytes(4, "big"), hashlib.sha256).digest()
    return time.process_time() - start


class RefClock:
    """CPU clock on the reference host's scale.

    :meth:`probe` times the reference kernel and keeps that time off the
    clock.  The CPU time between two probes is multiplied by ``REF_S`` over
    the mean of the two kernel times, so the scale follows the host's speed
    from one probe to the next.
    """

    def __init__(self) -> None:
        self.refs: list[float] = []  # every kernel time, in order
        self._excluded = 0.0         # CPU seconds spent in the kernel
        self._cpu = 0.0              # program CPU seconds up to the last probe
        self._scaled = 0.0           # the same, on the reference host
        self._next_probe = float("inf")
        self._mark = (0.0, 0.0)

    def probe(self) -> None:
        start = time.process_time()
        ref = reference_s()
        end = time.process_time()
        now = start - self._excluded
        if self.refs:
            self._scaled += (now - self._cpu) * self.scale_at(len(self.refs), ref)
        self.refs.append(ref)
        self._cpu = now
        self._excluded += end - start
        self._next_probe = end + PROBE_EVERY_S

    def maybe_probe(self) -> None:
        """Probe if ``PROBE_EVERY_S`` CPU seconds passed since the last."""
        if time.process_time() >= self._next_probe:
            self.probe()

    def scale_at(self, index: int, ref: float | None = None) -> float:
        """Scale for CPU time spent between probe ``index - 1`` and probe
        ``index`` (whose kernel time is ``ref`` while it is being taken)."""
        after = self.refs[index] if ref is None else ref
        return 2 * REF_S / (self.refs[index - 1] + after)

    def mark(self) -> tuple[float, float]:
        """Probe, and return the CPU seconds since the previous mark and the
        same on the reference host."""
        self.probe()
        cpu, scaled = self._cpu - self._mark[0], self._scaled - self._mark[1]
        self._mark = (self._cpu, self._scaled)
        return cpu, scaled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install_step_timer(steps: dict[str, list], clock: RefClock) -> None:
    """Time every ``Node.handle`` call and file it under the step it was,
    with the index of the probe that follows it; between steps, let
    ``clock`` probe the host's speed."""
    from agdh.node_fsm import MessageArrived, Mode, Node

    original = Node.handle
    cpu, maybe_probe = time.process_time, clock.maybe_probe
    announce, member_key, contribution = (
        steps["announce"], steps["member_key"], steps["contribution"])

    def handle(self, event, now):
        start = cpu()
        out = original(self, event, now)
        step = (cpu() - start, len(clock.refs))
        if out.key_changes:
            if out.key_changes[0].leader_id == self.node_id:
                announce.append(step)
            else:
                member_key.append(step)
        elif (out.accepted and self.mode is Mode.LEADER
              and type(event) is MessageArrived):
            contribution.append(step)
        maybe_probe()
        return out

    Node.handle = handle


# -- sim workloads -------------------------------------------------------------

def sim_sample(workload: str, seed: int, tracer) -> dict:
    import workloads
    from agdh import oracle, simnet
    from agdh.group_arith import _in_subgroup

    sim_config, node_config, params = workloads.sim_inputs(workload, seed)
    setup_s = time.process_time()
    clock = RefClock()
    steps = {"announce": [], "member_key": [], "contribution": []}
    if tracer is None:
        install_step_timer(steps, clock)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    cache_before = _in_subgroup.cache_info()

    clock.mark()
    with span("simnet.run"):
        result = simnet.run(sim_config, node_config, params)
    sim_cpu, sim_s = clock.mark()
    with span("oracle.audit"):
        report = oracle.audit_transcript(result)
    audit_cpu, audit_s = clock.mark()
    result.transcript.render()
    render_cpu, render_s = clock.mark()
    rss = peak_rss_mb()
    cache_after = _in_subgroup.cache_info()
    cpu_run_s = sim_cpu + audit_cpu + render_cpu
    run_s = sim_s + audit_s + render_s
    traced = tracer.summary(run_s / cpu_run_s) if tracer else None

    converged_at = simnet.converged_by(result)
    kinds = Counter(r.kind for r in result.transcript)
    rejects = Counter(r.get("reason") for r in result.transcript.of_kind("REJECT"))
    elections = sum(1 for r in result.transcript.of_kind("STATE")
                    if r.get("why") == "backoff_won")
    keys = len(result.metrics.key_events)
    failures = [f"{kind} {detail}" for kind, detail in report.findings]
    if converged_at is None:
        failures.append("run never converged (converged_by is None)")
    sample = {
        "setup_s": setup_s * REF_S / clock.refs[0],
        "run_s": run_s,
        "sim_s": sim_s,
        "audit_s": audit_s,
        "render_s": render_s,
        "cpu_run_s": cpu_run_s,
        "ref_s": clock.refs,
        "peak_rss_mb": rss,
        "keys": keys,
        "failed": len(failures),
        "failures": failures[:5],
        "steps": {k: [cpu * clock.scale_at(i) for cpu, i in vs]
                  for k, vs in steps.items()},
        "counts": {
            "records": len(result.transcript),
            "sends": kinds["SEND"],
            "deliveries": kinds["DELIVER"],
            "accepts": kinds["ACCEPT"],
            "rekeys": kinds["REKEY"],
            "elections": elections,
            "wire_bytes": sum(len(w) for w in result.wire_by_id.values()),
            "keys": keys,
            "converge_us": converged_at or 0,
            "exp_events": sum(d for _, _, d in result.metrics.exp_events),
            "subgroup_pow": cache_after.misses - cache_before.misses,
            "subgroup_hits": cache_after.hits - cache_before.hits,
            "rejects": dict(rejects),
        },
        "trace": traced,
    }
    return sample


# -- keying_m50 ----------------------------------------------------------------

def make_group(seed: int, index: int, m: int):
    """A fresh PROD group of m nodes: leader 1 and members 2..m."""
    from agdh.group_arith import PROD
    from agdh.messages import HmacKeyRing
    from agdh.node_fsm import Node, NodeConfig

    ids = range(1, m + 1)
    keyring = HmacKeyRing.provision(ids, master=f"perfbench/{seed}/{index}")
    return [Node(i, NodeConfig(), PROD, keyring,
                 rng=random.Random(f"{seed}/{index}/node/{i}")) for i in ids]


def establish(nodes, counts: Counter, rejects: Counter):
    """Drive one group from the leader's first beacon to every member
    holding the key: (the keyed announcement's Outgoing, step CPU times)."""
    from agdh.node_fsm import MessageArrived, TimerFired, TimerKind

    clock = time.process_time
    leader, members = nodes[0], nodes[1:]
    steps: dict[str, list[float]] = {"announce": [], "member_key": [],
                                     "contribution": []}

    def deliver(node, wire, now):
        counts["deliveries"] += 1
        start = clock()
        out = node.handle(MessageArrived(wire), now)
        elapsed = clock() - start
        counts["accepts"] += bool(out.accepted)
        if out.accepted is False:
            rejects[next((e[1] for e in out.log
                          if e[0] in ("reject", "discard", "ignore")),
                         "unspecified")] += 1
        return out, elapsed

    def sent(out):
        counts["sends"] += len(out.sends)
        counts["wire_bytes"] += sum(len(s.wire) for s in out.sends)
        counts["rekeys"] += sum(1 for entry in out.log if entry[0] == "rekey")
        return out.sends

    empty = sent(leader.start_as_leader(0))[0]
    replies = []
    for member in members:
        out, _ = deliver(member, empty.wire, 10_000)
        replies += sent(out)
    for reply in replies:
        out, elapsed = deliver(leader, reply.wire, 20_000)
        sent(out)
        steps["contribution"].append(elapsed)
    beacon_at = leader.deadlines[TimerKind.BEACON]
    start = clock()
    out = leader.handle(TimerFired(TimerKind.BEACON), beacon_at)
    steps["announce"].append(clock() - start)
    keyed = sent(out)[0]
    for member in members:
        out, elapsed = deliver(member, keyed.wire, beacon_at + 10_000)
        sent(out)
        steps["member_key"].append(elapsed)
    counts["converge_us"] += beacon_at + 10_000
    return keyed, steps


def check_group(nodes, keyed) -> tuple[int, list[str]]:
    """Compare every node's key with ``gka_core.oracle_key`` computed from
    the leader's and members' secret logs: (keys attempted, failures)."""
    from agdh.gka_core import oracle_key

    leader = nodes[0]
    params = leader.params
    by_id = {n.node_id: n for n in nodes}
    msg = keyed.message
    leader_secret = next(r.secret for r in reversed(leader.secret_log)
                         if r.role == "leader" and r.nonce == msg.sender_nonce)
    member_secrets = [
        next(r.secret for r in by_id[e.participant_id].secret_log
             if r.role == "member" and r.blinded == e.blinded_secret
             and r.nonce == e.nonce)
        for e in msg.entries]
    want = oracle_key(leader_secret, member_secrets, params)
    failures = [f"node {n.node_id}: key differs from oracle_key"
                for n in nodes
                if n.session is None or n.session.group_key != want]
    if len(msg.entries) != len(nodes) - 1:
        failures.append(f"announcement holds {len(msg.entries)} of"
                        f" {len(nodes) - 1} members")
    return len(nodes), failures


def keying_sample(seed: int, tracer) -> dict:
    import workloads
    from agdh.group_arith import _in_subgroup

    groups = [make_group(seed, g, workloads.KEYING_M)
              for g in range(workloads.KEYING_GROUPS)]
    steps = {"announce": [], "member_key": [], "contribution": []}
    counts: Counter = Counter()
    rejects: Counter = Counter()
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    setup_s = time.process_time()
    clock = RefClock()
    cache_before = _in_subgroup.cache_info()
    group_s, cpu_s, announcements = [], [], []
    clock.mark()
    for nodes in groups:
        with span("bench.group"):
            keyed, group_steps = establish(nodes, counts, rejects)
        cpu, scaled = clock.mark()
        cpu_s.append(cpu)
        group_s.append(scaled)
        scale = clock.scale_at(len(clock.refs) - 1)
        for name, values in group_steps.items():
            steps[name] += [v * scale for v in values]
        announcements.append(keyed)
    rss = peak_rss_mb()
    cache_after = _in_subgroup.cache_info()
    traced = tracer.summary(sum(group_s) / sum(cpu_s)) if tracer else None

    keys, failures = 0, []
    for nodes, keyed in zip(groups, announcements):
        attempted, failed = check_group(nodes, keyed)
        keys += attempted
        failures += failed
    counts.update({
        "records": 0, "elections": 0, "keys": keys,
        "exp_events": sum(n.counter.count for g in groups for n in g),
        "subgroup_pow": cache_after.misses - cache_before.misses,
        "subgroup_hits": cache_after.hits - cache_before.hits,
    })
    return {
        "setup_s": setup_s * REF_S / clock.refs[0],
        "run_s": sum(group_s),
        "group_s": group_s,
        "cpu_run_s": sum(cpu_s),
        "ref_s": clock.refs,
        "peak_rss_mb": rss,
        "keys": keys,
        "failed": len(failures),
        "failures": failures[:5],
        "steps": steps,
        "counts": {**counts, "rejects": dict(rejects)},
        "trace": traced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the spans to this file")
    args = parser.parse_args(argv)

    import_program()
    import workloads
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    if args.workload in workloads.SIM_WORKLOADS:
        sample = sim_sample(args.workload, args.seed, tracer)
    elif args.workload == "keying_m50":
        sample = keying_sample(args.seed, tracer)
    else:
        parser.error(f"unknown workload {args.workload!r}")
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
