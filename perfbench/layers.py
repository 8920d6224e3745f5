"""Per-layer metrics of a traced run, and the checks that keep them honest.

A traced run alternates untraced and traced samples of one input.  Counts
come from the program's outputs and the tracer's call counts, and must
repeat exactly across every sample of the run; timings are self times
(span duration minus the time its child spans cover), as medians over the
traced samples.  ``<module>.<function>.s`` is a self time;
``simnet.run.s`` and ``gka_core.compute_key_leader.incl_s`` are inclusive.
"""

from __future__ import annotations

import statistics

LAYERS = ("group_arith", "gka_core", "messages", "node_fsm", "simnet", "oracle")

# Reasons simnet writes on REJECT records: the first reject, discard or
# ignore entry of the receiving node's step log.
REJECT_REASONS = (
    "malformed", "bad_signature", "shape", "self_echo", "stale_epoch",
    "larger_leader", "wrong_echo", "degenerate_announcement", "not_leader",
    "replay_seq", "identity_contribution", "del_nonce_mismatch", "jreply",
    "unspecified",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """(metrics as {name: {"value", "unit"}}, self-check failures)."""
    problems = []
    first = traced[0]
    counts, trace = first["counts"], first["trace"]
    for s in plain + traced:
        if s["counts"] != counts:
            problems.append("program counts differ between samples of one input")
            break
    for s in traced[1:]:
        if (s["trace"]["calls"], s["trace"]["binding_calls"]) != \
                (trace["calls"], trace["binding_calls"]):
            problems.append("traced call counts differ between samples of one input")
            break

    calls = trace["calls"]
    binding = trace["binding_calls"]

    def self_s(name: str) -> float:
        return statistics.median(s["trace"]["self_s"].get(name, 0.0) for s in traced)

    def total_s(name: str) -> float:
        return statistics.median(s["trace"]["total_s"].get(name, 0.0) for s in traced)

    def layer_sum(s: dict) -> float:
        return sum(v for name, v in s["trace"]["self_s"].items()
                   if name.split(".", 1)[0] in LAYERS)

    exp_calls = calls.get("group_arith.exp", 0)
    keys = counts["keys"]
    sends = counts["sends"]
    deliveries = counts["deliveries"]
    records = counts["records"]
    hits, misses = counts["subgroup_hits"], counts["subgroup_pow"]
    node_decodes = binding.get("node_fsm->messages.decode", 0)
    oracle_decodes = binding.get("oracle->messages.decode", 0)
    sim_s = [s["sim_s"] for s in plain if "sim_s" in s]
    traced_run = statistics.median(s["run_s"] for s in traced)
    plain_run = statistics.median(s["run_s"] for s in plain)
    unattributed = statistics.median(s["run_s"] - layer_sum(s) for s in traced)

    m = {
        "group_arith.exp.calls": (exp_calls, "count"),
        "group_arith.exp.s": (self_s("group_arith.exp"), "s"),
        "group_arith.is_element.calls": (calls.get("group_arith.is_element", 0), "count"),
        "group_arith.is_element.s": (self_s("group_arith.is_element"), "s"),
        "group_arith.subgroup_pow": (misses, "count"),
        "group_arith.subgroup_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "group_arith.encode_element.calls": (calls.get("group_arith.encode_element", 0), "count"),
        "group_arith.decode_element.calls": (calls.get("group_arith.decode_element", 0), "count"),
        "gka_core.compute_key_leader.s": (self_s("gka_core.compute_key_leader"), "s"),
        "gka_core.compute_key_leader.incl_s": (total_s("gka_core.compute_key_leader"), "s"),
        "gka_core.respond.calls": (calls.get("gka_core.respond", 0), "count"),
        "gka_core.blind.calls": (calls.get("gka_core.blind", 0), "count"),
        "gka_core.recover_leader_blind.calls": (calls.get("gka_core.recover_leader_blind", 0), "count"),
        "gka_core.expos_per_key": (_ratio(exp_calls, keys), "expo/key"),
        "messages.encode_canonical.calls": (calls.get("messages.encode_canonical", 0), "count"),
        "messages.encodes_per_send": (_ratio(calls.get("messages.encode_canonical", 0), sends), "encode/msg"),
        "messages.decode.s": (self_s("messages.decode"), "s"),
        "messages.verify.s": (self_s("messages.verify"), "s"),
        "messages.hmac.calls": (calls.get("messages.hmac", 0), "count"),
        "messages.wire_bytes": (counts["wire_bytes"], "B"),
        "messages.bytes_per_key": (_ratio(counts["wire_bytes"], keys), "B/key"),
        "node_fsm.handle.calls": (calls.get("node_fsm.handle", 0), "count"),
        "node_fsm.handle.self_s": (self_s("node_fsm.handle"), "s"),
        "node_fsm.fastpath_ratio": (_ratio(deliveries - node_decodes, deliveries), "ratio"),
        "node_fsm.accept_ratio": (_ratio(counts["accepts"], deliveries), "ratio"),
        "simnet.run.s": (total_s("simnet.run"), "s"),
        "simnet.self_s": (self_s("simnet.run"), "s"),
        "simnet.records": (records, "count"),
        "simnet.records_per_s": (_ratio(records, statistics.median(sim_s)) if sim_s else 0.0, "1/s"),
        "simnet.render.s": (self_s("simnet.render"), "s"),
        "oracle.audit.s": (self_s("oracle.audit"), "s"),
        "oracle.decode.calls": (oracle_decodes, "count"),
        "oracle.verify.calls": (binding.get("oracle->messages.verify", 0), "count"),
        "oracle.decodes_per_accept": (_ratio(oracle_decodes, counts["accepts"]), "decode/msg"),
        "scenario.parse.s": (self_s("scenario.parse_scenario"), "s"),
        "simnet.converge_sim_s": (counts["converge_us"] / 1e6, "s"),
        "node_fsm.rekeys": (counts["rekeys"], "count"),
        "node_fsm.elections": (counts["elections"], "count"),
        "simnet.messages": (sends, "count"),
        "simnet.rejects": (sum(counts["rejects"].values()), "count"),
    }
    for reason in REJECT_REASONS:
        m[f"simnet.reject.{reason}"] = (counts["rejects"].get(reason, 0), "count")
    m["simnet.reject.other"] = (sum(n for reason, n in counts["rejects"].items()
                                    if reason not in REJECT_REASONS), "count")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (statistics.median(
            sum(v for name, v in s["trace"]["self_s"].items()
                if name.split(".", 1)[0] == layer) for s in traced), "s")
    m.update({
        "bench.keys": (keys, "count"),
        "trace.spans": (trace["spans"], "count"),
        "trace.run_s": (traced_run, "s"),
        "trace.untraced_run_s": (plain_run, "s"),
        "trace.overhead_s": (traced_run - plain_run, "s"),
        "trace.unattributed_s": (unattributed, "s"),
    })

    if exp_calls != counts["exp_events"]:
        problems.append(f"group_arith.exp.calls {exp_calls} != program's"
                        f" exponentiation count {counts['exp_events']}")
    if not 0 <= unattributed <= traced_run - plain_run:
        problems.append(f"layer self times leave {unattributed:.6f} s of the"
                        f" traced run unattributed, more than the tracing"
                        f" overhead {traced_run - plain_run:.6f} s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, problems
