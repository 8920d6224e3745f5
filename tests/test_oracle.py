from collections import Counter
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from agdh.errors import CountMismatch, MalformedMessage
from agdh.gka_core import derive_session_key
from agdh.group_arith import PROD, TOY
from agdh.messages import (
    GroupEntry,
    HmacKeyRing,
    build_igroup,
    build_ireply,
    decode,
    encode_canonical,
    encode_signed,
    sign,
    sign_and_encode,
)
from agdh.node_fsm import NodeConfig
from agdh.oracle import (
    _ANNOUNCEMENT_NAMES,
    AuditReport,
    CostRow,
    audit_transcript,
    cost_table,
)
from agdh.simnet import (
    SECOND,
    CrashAt,
    InjectAt,
    LeaveAt,
    Record,
    SimConfig,
    Transcript,
    replay,
    run,
)


class TestAuditBaseline:
    def test_clean_lossless_run_zero_findings(self):
        res = run(SimConfig(node_count=5, seed=17, duration=60 * SECOND),
                  NodeConfig(), PROD)
        report = audit_transcript(res)
        assert report.clean, report.findings
        assert report.epochs_checked >= 1
        assert report.accepts_checked > 0

    def test_churny_run_zero_findings(self):
        res = run(SimConfig(node_count=6, seed=23, duration=90 * SECOND,
                            schedule=(LeaveAt(40 * SECOND, 3),
                                      CrashAt(60 * SECOND, 5))),
                  NodeConfig(), PROD)
        report = audit_transcript(res)
        assert report.clean, report.findings


class TestAuditDetections:
    def test_skipped_verification_is_caught(self):
        """A node with signature checks disabled accepts a tampered wire;
        the auditor re-verifies every accepted message and flags it."""
        report = audit_transcript(_injected_run(skip_verify=True))
        kinds = {kind for kind, _ in report.findings}
        assert "accepted_unverified" in kinds

    def test_honest_node_rejects_same_injection(self):
        res = _injected_run(skip_verify=False)
        assert audit_transcript(res).clean
        rejects = [r for r in res.transcript.of_kind("REJECT")
                   if r.get("reason") == "bad_signature"]
        assert rejects

    def test_corrupted_leader_computation_trips_audit(self, monkeypatch):
        """The audit recomputes keys on an independent path, so corrupting
        the leader-side fold must surface as a mismatch."""
        import agdh.node_fsm as node_fsm
        from agdh.gka_core import compute_key_leader as real

        def corrupted(leader_secret, shares, params, counter=None):
            key, entries = real(leader_secret, shares, params, counter)
            wrong = key * params.generator % params.modulus
            return wrong, entries

        monkeypatch.setattr(node_fsm, "compute_key_leader", corrupted)
        res = run(SimConfig(node_count=3, seed=17, duration=40 * SECOND),
                  NodeConfig(), PROD)
        report = audit_transcript(res)
        kinds = {kind for kind, _ in report.findings}
        assert "key_mismatch" in kinds

    def test_degenerate_collision_recovered_in_simulation(self):
        """Seed hunt for a run where drawn secrets sum to -1 mod 11 on the
        toy group; the leader must exclude, recover, and never ship an
        identity key."""
        hit = None
        for seed in range(200):
            res = run(SimConfig(node_count=3, seed=seed, duration=90 * SECOND),
                      NodeConfig(), TOY)
            if res.transcript.of_kind("DEGENERATE_EXCLUDED"):
                hit = res
                break
        assert hit is not None, "no degenerate collision in 200 seeds"
        assert replay(hit).converged
        for kev in hit.metrics.key_events:
            assert kev.group_key != 1
        report = audit_transcript(hit)
        assert report.clean, report.findings


class TestCostTable:
    def test_exact_rows(self):
        for n in (2, 4, 10):
            res = run(SimConfig(node_count=n, seed=100 + n,
                                duration=40 * SECOND), NodeConfig(), PROD)
            row = cost_table(res, n)
            assert row.member_expos == 2
            assert row.leader_expos == n
            assert row.messages == n
            assert row.broadcasts == 1
            assert row.rounds == 2

    def test_wrong_group_size_rejected(self):
        res = run(SimConfig(node_count=4, seed=104, duration=40 * SECOND),
                  NodeConfig(), PROD)
        with pytest.raises(CountMismatch):
            cost_table(res, 5)

    def test_no_establishment_rejected(self):
        res = run(SimConfig(node_count=1, seed=1, duration=30 * SECOND),
                  NodeConfig(), TOY)
        with pytest.raises(CountMismatch):
            cost_table(res, 1)


def reference_cost_table(result, m: int) -> CostRow:
    """The recursive cost row: each counted message's round is found by a
    memoised search over every other counted message's deliveries, by
    time.  It reads "before" as "at or before the same instant", so a
    delivery listed after a send at that send's instant deepens it, and a
    contribution sent at the announcement's instant counts even when it is
    listed after the announcement."""
    params = result.params
    delivered_at: dict[int, list[tuple[int, int]]] = {}
    keys = []
    contributions: dict[tuple, Record] = {}
    establishing = None
    for rec in result.transcript:
        if rec.kind == "DELIVER":
            delivered_at.setdefault(rec.get("id"), []).append((rec.time, rec.node))
        elif rec.kind == "KEY":
            keys.append(rec)
        if rec.kind != "SEND":
            continue
        kind = rec.get("kind")
        if kind == "IREPLY" and (
                establishing is None or rec.time <= establishing.time):
            msg = decode(rec.get("wire"), params)
            entry = msg.entries[0]
            logical = (msg.sender_id, entry.nonce, entry.blinded_secret)
            contributions.setdefault(logical, rec)
        elif kind == "IGROUP" and establishing is None and rec.get("entries"):
            establishing = rec
    if establishing is None:
        raise CountMismatch("no keyed announcement in transcript")
    establishing_msg = decode(establishing.get("wire"), params)
    leader_id, epoch = establishing_msg.sender_id, establishing_msg.epoch
    messages = len(contributions) + 1
    counted = {r.get("id"): r for r in (*contributions.values(), establishing)}

    def depth(msg_id: int, memo: dict) -> int:
        if msg_id in memo:
            return memo[msg_id]
        best = 0
        sent = counted[msg_id]
        for other in counted:
            if other == msg_id:
                continue
            for when, receiver in delivered_at.get(other, ()):
                if receiver == sent.node and when <= sent.time:
                    best = max(best, depth(other, memo))
                    break
        memo[msg_id] = best + 1
        return memo[msg_id]

    memo: dict[int, int] = {}
    rounds = max(depth(i, memo) for i in counted)

    key_times = [rec.time for rec in keys
                 if rec.get("leader") == leader_id and rec.get("epoch") == epoch]
    t_conv = max(key_times) if key_times else establishing.time
    expos: dict[int, int] = {}
    for when, node_id, delta in result.metrics.exp_events:
        if when <= t_conv:
            expos[node_id] = expos.get(node_id, 0) + delta

    member_ids = {e.participant_id for e in establishing_msg.entries}
    problems = []
    leader_expos = expos.get(leader_id, 0)
    if leader_expos != m:
        problems.append(f"leader expos {leader_expos} != {m}")
    member_expo_values = {expos.get(pid, 0) for pid in member_ids}
    if member_expo_values != {2}:
        problems.append(f"member expos {sorted(member_expo_values)} != 2")
    if len(member_ids) != m - 1:
        problems.append(f"group size {len(member_ids) + 1} != {m}")
    if messages != m:
        problems.append(f"messages {messages} != {m}")
    if rounds != 2:
        problems.append(f"rounds {rounds} != 2")
    if problems:
        raise CountMismatch("; ".join(problems))
    return CostRow(m, 2, leader_expos, messages, 1, rounds)


def _cost_outcome(table, result, m: int):
    """The row, or the mismatch's text."""
    try:
        return table(result, m)
    except CountMismatch as exc:
        return str(exc)


class TestCostTableEquivalence:
    def test_one_pass_matches_the_recursion_on_toy_runs(self):
        """Lossless and lossy TOY formations: the one-pass row equals the
        recursive one, row for row and mismatch text for mismatch text, and
        the grid reaches chains other than the paper's 2 rounds, so the
        causal depth is really compared."""
        outcomes = []
        for n, seed, loss in product((3, 5, 8), range(6), (0, 0.1, 0.3)):
            res = run(SimConfig(node_count=n, seed=seed, loss_prob=loss,
                                duration=40 * SECOND),
                      NodeConfig(), TOY)
            want = _cost_outcome(reference_cost_table, res, n)
            assert _cost_outcome(cost_table, res, n) == want, (n, seed, loss)
            outcomes.append(want)
        assert any(isinstance(o, CostRow) for o in outcomes)
        other_rounds = {o.split("rounds ")[1] for o in outcomes
                        if isinstance(o, str) and "rounds " in o}
        assert {"1 != 2", "3 != 2"} <= other_rounds

    @staticmethod
    def tie_run(ties_first: bool):
        """Leader 1 keys members 2 and 3 (m = 3) at t=40.  Node 2 first
        answers candidate 3, then repeats the same contribution to leader
        1, where it counts once.  Two records share an instant with a
        send: node 2's contribution reaches node 3 at t=20, the instant
        node 3 sends its own, and late node 4 sends a contribution at
        t=40, the announcement's instant.  With ``ties_first`` each is
        listed before the send it ties with, otherwise after it."""
        ring = HmacKeyRing.provision(range(1, 5))

        def nonce(node):
            return bytes([node]) * 16

        def reply(node, blinded):
            entry = GroupEntry(node, nonce(node), blinded, None)
            return sign_and_encode(build_ireply(node, nonce(node), 1, entry),
                                   ring, TOY)[1]

        announcement = sign_and_encode(build_igroup(1, nonce(1), 1, [
            GroupEntry(2, nonce(2), 2, 4), GroupEntry(3, nonce(3), 3, 9)]),
            ring, TOY)[1]
        t = Transcript()

        def send(at, node, msg_id, dest, wire, kind="IREPLY", entries=1):
            t.append(at, "SEND", node,
                     ("id", "kind", "dest", "epoch", "entries", "wire"),
                     msg_id, kind, dest, 1, entries, wire)

        def tie_at_20():
            t.append(20, "DELIVER", 3, ("id", "from"), 1, 2)

        def tie_at_40():
            send(40, 4, 5, 1, reply(4, 6))

        send(10, 2, 1, 3, reply(2, 2))
        if ties_first:
            tie_at_20()
        send(20, 3, 2, 1, reply(3, 3))
        if not ties_first:
            tie_at_20()
        send(25, 2, 3, 1, reply(2, 2))
        t.append(30, "DELIVER", 1, ("id", "from"), 2, 3)
        t.append(35, "DELIVER", 1, ("id", "from"), 3, 2)
        if ties_first:
            tie_at_40()
        send(40, 1, 4, "bcast", announcement, kind="IGROUP", entries=2)
        if not ties_first:
            tie_at_40()
        for at, node in ((50, 2), (55, 3)):
            t.append(at, "DELIVER", node, ("id", "from"), 4, 1)
            t.append(at, "KEY", node, ("leader", "epoch", "key"), 1, 1,
                     bytes(32))
        exp_events = [(10, 2, 1), (20, 3, 1), (40, 1, 3), (40, 4, 1),
                      (50, 2, 1), (55, 3, 1)]
        return SimpleNamespace(params=TOY, transcript=t,
                               metrics=SimpleNamespace(exp_events=exp_events))

    def test_same_instant_ties_follow_record_order(self):
        """A delivery listed after a send at the same instant does not
        deepen that send, and a contribution listed after the announcement
        at its instant is not counted; listed before, both do, as the
        recursion, which reads only times, has them either way."""
        tied = "messages 4 != 3; rounds 3 != 2"
        res = self.tie_run(ties_first=False)
        assert cost_table(res, 3) == CostRow(3, 2, 3, 3, 1, 2)
        assert _cost_outcome(reference_cost_table, res, 3) == tied
        res = self.tie_run(ties_first=True)
        assert _cost_outcome(cost_table, res, 3) == tied
        assert _cost_outcome(reference_cost_table, res, 3) == tied


def reference_audit(result) -> AuditReport:
    """The per-accept auditor: decodes wires from the transcript's hex,
    once per use, and verifies each accepted delivery by re-encoding it.
    It reads keys from the KEY records and secrets from the nodes' own
    logs, one list of records at a time.  Its expected key elements come
    from builtin pow, so comparing it with the audit also checks
    ``oracle_key``'s comb over whole runs."""
    params = result.params
    report = AuditReport()

    def verifies(msg):
        return result.keyring.verify(
            msg.sender_id, encode_canonical(msg, params), msg.signature)

    leader_secret_by_nonce, member_secret = {}, {}
    for node_id, node in result.nodes.items():
        for rec in node.secret_log:
            if rec.role == "leader":
                leader_secret_by_nonce[(node_id, rec.nonce)] = rec.secret
            else:
                member_secret[(node_id, rec.blinded, rec.nonce)] = rec.secret

    composition = {}
    for rec in result.transcript.of_kind("SEND"):
        if rec.get("kind") not in _ANNOUNCEMENT_NAMES:
            continue
        if rec.get("entries") == 0:
            continue
        try:
            msg = decode(result.wire_by_id[rec.get("id")], params)
        except MalformedMessage:
            report.add("malformed_announcement",
                       f"id={rec.get('id')} leader={rec.node}")
            continue
        key = (msg.sender_id, msg.epoch)
        shape = tuple((e.participant_id, e.nonce, e.blinded_secret)
                      for e in msg.entries)
        previous = composition.get(key)
        if previous is not None:
            if previous[1] != shape:
                report.add("epoch_reuse",
                           f"leader={msg.sender_id} epoch={msg.epoch}")
            continue
        composition[key] = (msg, shape)

    expected, included = {}, {}
    for (leader_id, epoch), (msg, shape) in composition.items():
        r_l = leader_secret_by_nonce.get((leader_id, msg.sender_nonce))
        if r_l is None:
            report.add("unknown_leader_secret",
                       f"leader={leader_id} epoch={epoch}")
            continue
        member_secrets = []
        for pid, nonce, blinded in shape:
            secret = member_secret.get((pid, blinded, nonce))
            if secret is None:
                report.add("unknown_contribution",
                           f"leader={leader_id} epoch={epoch} member={pid}")
                break
            member_secrets.append(secret)
        else:
            key_element = pow(params.generator,
                              r_l * (1 + sum(member_secrets)) % params.order,
                              params.modulus)
            if key_element == 1:
                report.add("identity_key", f"leader={leader_id} epoch={epoch}")
                continue
            expected[(leader_id, epoch)] = derive_session_key(
                key_element, epoch, params)
            included[(leader_id, epoch)] = {p for p, _, _ in shape} | {leader_id}
    report.epochs_checked = len(expected)

    for rec in result.transcript.of_kind("KEY"):
        node_id, leader_id, epoch = rec.node, rec.get("leader"), rec.get("epoch")
        want = expected.get((leader_id, epoch))
        if want is None:
            report.add("unannounced_epoch",
                       f"node={node_id} leader={leader_id} epoch={epoch}")
            continue
        if node_id not in included[(leader_id, epoch)]:
            report.add("foreign_key",
                       f"node={node_id} not in epoch {epoch} group")
        if rec.get("key") != want:
            report.add("key_mismatch",
                       f"node={node_id} leader={leader_id} epoch={epoch}")

    for rec in result.transcript.of_kind("ACCEPT"):
        report.accepts_checked += 1
        wire = result.wire_by_id.get(rec.get("id"))
        if wire is None:
            report.add("accept_without_wire", f"id={rec.get('id')}")
            continue
        try:
            msg = decode(wire, params)
        except MalformedMessage as exc:
            report.add("accepted_malformed", f"id={rec.get('id')}: {exc}")
            continue
        if not verifies(msg):
            report.add("accepted_unverified",
                       f"node={rec.node} id={rec.get('id')} kind={msg.kind.name}")
    return report


def _injected_run(skip_verify: bool):
    """A 3-node PROD run where one member is fed a keyed announcement with
    a broken signature; with ``skip_verify`` the nodes' signature check is
    patched out for the run, and that member accepts it.  Only the member
    receives the tampered wire, and every other wire verifies."""
    import agdh.node_fsm as node_fsm

    probe = run(SimConfig(node_count=3, seed=31, duration=40 * SECOND),
                NodeConfig(), PROD)
    keyed = next(r for r in probe.transcript.of_kind("SEND")
                 if r.get("kind") == "IGROUP" and r.get("entries") > 0)
    tampered = bytearray(probe.wire_by_id[keyed.get("id")])
    tampered[-1] ^= 0x01
    member = next(n for n in replay(probe).live
                  if probe.nodes[n].mode.value == "member")
    with pytest.MonkeyPatch.context() as patch:
        if skip_verify:
            patch.setattr(node_fsm, "verify", lambda msg, wire, keyring: True)
        return run(SimConfig(node_count=3, seed=31, duration=40 * SECOND,
                             schedule=(InjectAt(35 * SECOND, member,
                                                bytes(tampered)),)),
                   NodeConfig(), PROD)


def _corrupted_leader_run(monkeypatch):
    import agdh.node_fsm as node_fsm
    from agdh.gka_core import compute_key_leader as real

    def corrupted(leader_secret, shares, params, counter=None):
        key, entries = real(leader_secret, shares, params, counter)
        return key * params.generator % params.modulus, entries

    with monkeypatch.context() as patch:
        patch.setattr(node_fsm, "compute_key_leader", corrupted)
        return run(SimConfig(node_count=3, seed=17, duration=40 * SECOND),
                   NodeConfig(), PROD)


class TestAuditEquivalence:
    """The decode-once auditor reports exactly what the per-accept
    reference auditor reports."""

    @staticmethod
    def assert_same(res):
        got = audit_transcript(res)
        want = reference_audit(res)
        assert got.findings == want.findings
        assert got.accepts_checked == want.accepts_checked
        assert got.epochs_checked == want.epochs_checked
        return got

    def test_clean_prod_run(self):
        res = run(SimConfig(node_count=8, seed=2, duration=60 * SECOND),
                  NodeConfig(), PROD)
        report = self.assert_same(res)
        assert report.clean and report.epochs_checked > 0

    def test_skip_verify_tampered_injection(self):
        report = self.assert_same(_injected_run(skip_verify=True))
        assert [k for k, _ in report.findings] == ["accepted_unverified"]

    def test_honest_reject_injection(self):
        report = self.assert_same(_injected_run(skip_verify=False))
        assert report.clean

    def test_corrupted_leader_run(self, monkeypatch):
        report = self.assert_same(_corrupted_leader_run(monkeypatch))
        assert "key_mismatch" in {k for k, _ in report.findings}

    def test_toy_runs(self):
        for seed in range(6):
            res = run(SimConfig(node_count=8, seed=seed, duration=40 * SECOND),
                      NodeConfig(), TOY)
            report = self.assert_same(res)
            assert report.clean and report.epochs_checked > 0


def _decoded_wires(monkeypatch, res):
    """Audit ``res``, counting the oracle's decodes per wire; returns the
    counts, the report, and the distinct wires some node accepted or that
    announce a group composition."""
    import agdh.oracle as oracle

    calls = Counter()
    real = oracle.decode

    def counting(wire, params):
        calls[wire] += 1
        return real(wire, params)

    monkeypatch.setattr(oracle, "decode", counting)
    report = audit_transcript(res)
    wire_of = res.wire_by_id
    accepted = {wire_of[r.get("id")] for r in res.transcript.of_kind("ACCEPT")}
    composed = {wire_of[r.get("id")] for r in res.transcript.of_kind("SEND")
                if r.get("kind") in _ANNOUNCEMENT_NAMES and r.get("entries") > 0}
    return calls, report, accepted | composed


def test_audit_decodes_each_distinct_wire_once(monkeypatch):
    """On TOY, rebeacons repeat an announcement's bytes and every member
    accepts it, yet the auditor decodes each distinct wire at most once,
    and only the wires some node accepted or that announce a group."""
    res = run(SimConfig(node_count=8, seed=2, loss_prob=0.1,
                        duration=60 * SECOND), NodeConfig(), TOY)
    calls, report, wanted = _decoded_wires(monkeypatch, res)
    assert report.clean
    assert report.accepts_checked > len(calls) > 0
    assert max(calls.values()) == 1
    assert set(calls) == wanted


def test_prod_audit_decodes_only_accepted_or_composed_wires(monkeypatch):
    """The audit decodes exactly the distinct PROD wires that some node
    accepted or that announce a group composition, each once, and reports
    what the reference auditor reports."""
    res = run(SimConfig(node_count=8, seed=2, loss_prob=0.1,
                        duration=60 * SECOND), NodeConfig(), PROD)
    TestAuditEquivalence.assert_same(res)
    calls, report, wanted = _decoded_wires(monkeypatch, res)
    assert report.clean
    assert set(calls) == wanted
    assert max(calls.values()) == 1


# -- one alteration per audit finding ------------------------------------------

def _toy_run():
    """A clean 4-node TOY run: one keyed group and its rebeacons."""
    res = run(SimConfig(node_count=4, seed=1, duration=60 * SECOND),
              NodeConfig(), TOY)
    assert audit_transcript(res).clean
    return res


def _keyed(res):
    """The first keyed announcement's SEND record and decoded message."""
    rec = next(r for r in res.transcript.of_kind("SEND")
               if r.get("kind") == "IGROUP" and r.get("entries"))
    return rec, decode(rec.get("wire"), res.params)


def _add_announcement(res, msg, wire=None):
    """Record ``msg``, signed by its sender, as one more sent announcement;
    or ``wire`` in its place, if given."""
    if wire is None:
        wire = encode_signed(sign(msg, res.keyring, res.params), res.params)
    msg_id = max(res.wire_by_id) + 1
    res.wire_by_id[msg_id] = wire
    res.transcript.append(
        res.transcript.records[-1].time, "SEND", msg.sender_id,
        ("id", "kind", "dest", "epoch", "entries", "wire"),
        msg_id, "IGROUP", "bcast", msg.epoch, len(msg.entries), wire)


def _accepted_ireply_id(res) -> int:
    """The id of a contribution some node accepted."""
    kinds = {r.get("id"): r.get("kind") for r in res.transcript.of_kind("SEND")}
    return next(r.get("id") for r in res.transcript.of_kind("ACCEPT")
                if kinds[r.get("id")] == "IREPLY")


def _reuse_epoch(res):
    _, msg = _keyed(res)
    _add_announcement(res, build_igroup(msg.sender_id, msg.sender_nonce,
                                        msg.epoch, msg.entries[:-1]))


def _unknown_leader_nonce(res):
    _, msg = _keyed(res)
    _add_announcement(res, build_igroup(msg.sender_id, bytes(16), 99,
                                        msg.entries))


def _unknown_contribution(res):
    _, msg = _keyed(res)
    entries = (msg.entries[0]._replace(nonce=bytes(16)),
               *msg.entries[1:])
    _add_announcement(res, build_igroup(msg.sender_id, msg.sender_nonce, 99,
                                        entries))


def _identity_key(res):
    """Announce, under the leader's real nonce, members whose logged
    secrets sum to -1 mod q: the oracle's key is then the identity."""
    _, msg = _keyed(res)
    logged = [(node_id, rec) for node_id, node in res.nodes.items()
              for rec in node.secret_log if rec.role == "member"]
    chosen = next(
        combo for size in range(1, len(logged) + 1)
        for combo in combinations(logged, size)
        if len({node_id for node_id, _ in combo}) == size
        and (1 + sum(rec.secret for _, rec in combo)) % TOY.order == 0)
    entries = [GroupEntry(node_id, rec.nonce, rec.blinded, rec.blinded)
               for node_id, rec in chosen]
    _add_announcement(res, build_igroup(msg.sender_id, msg.sender_nonce, 99,
                                        entries))


def _garbled_announcement(res):
    """A sent keyed announcement whose wire does not parse."""
    _, msg = _keyed(res)
    _add_announcement(res, msg._replace(epoch=99), wire=b"\x09garbage")


def _repeated_id_announcement(res):
    """A validly signed keyed announcement that names a member twice."""
    _, msg = _keyed(res)
    _add_announcement(res, msg._replace(epoch=99,
                                        entries=msg.entries + msg.entries[:1]))


def _plant_key(res, node=None, **fields):
    """Record one more KEY: a copy of the last, with ``node`` or the named
    fields replaced."""
    last = res.transcript.of_kind("KEY")[-1]
    values = dict(zip(last.names, last.values), **fields)
    res.transcript.append(last.time, "KEY", last.node if node is None else node,
                          last.names, *values.values())


def _unannounced_epoch(res):
    _plant_key(res, epoch=99)


def _foreign_key(res):
    _plant_key(res, node=99)


def _wrong_key(res):
    _plant_key(res, key=bytes(32))


def _accept_without_wire(res):
    del res.wire_by_id[_accepted_ireply_id(res)]


def _accepted_malformed(res):
    res.wire_by_id[_accepted_ireply_id(res)] = b"\x09garbage"


@pytest.mark.parametrize("alter, finding", [
    (_reuse_epoch, "epoch_reuse"),
    (_unknown_leader_nonce, "unknown_leader_secret"),
    (_unknown_contribution, "unknown_contribution"),
    (_identity_key, "identity_key"),
    (_unannounced_epoch, "unannounced_epoch"),
    (_foreign_key, "foreign_key"),
    (_wrong_key, "key_mismatch"),
    (_accept_without_wire, "accept_without_wire"),
    (_accepted_malformed, "accepted_malformed"),
    (_garbled_announcement, "malformed_announcement"),
    (_repeated_id_announcement, "malformed_announcement"),
])
def test_each_alteration_yields_exactly_its_finding(alter, finding):
    res = _toy_run()
    alter(res)
    report = audit_transcript(res)
    assert [kind for kind, _ in report.findings] == [finding]
    assert report.findings == reference_audit(res).findings


@pytest.mark.parametrize("alter", [_garbled_announcement,
                                   _repeated_id_announcement])
def test_malformed_sent_announcement_is_a_finding(alter):
    """A sent keyed announcement whose wire does not decode, garbled or
    naming a member twice under a valid signature, is reported with its
    id and leader, and the audit goes on: every key is still checked."""
    res = _toy_run()
    clean = audit_transcript(res)
    alter(res)
    sent = res.transcript.records[-1]
    report = audit_transcript(res)
    assert report.findings == [("malformed_announcement",
                                f"id={sent.get('id')} leader={sent.node}")]
    assert (report.epochs_checked, report.accepts_checked) == \
        (clean.epochs_checked, clean.accepts_checked)


def test_audit_and_cost_row_read_keys_from_records(monkeypatch):
    """Keys come from the transcript's KEY records: with the metrics' copy
    of them cleared, a run with key findings reports the same, and the cost
    row still counts exponentiations up to the last member's key."""
    res = _corrupted_leader_run(monkeypatch)
    before = audit_transcript(res)
    assert "key_mismatch" in {k for k, _ in before.findings}
    res.metrics.key_events.clear()
    after = audit_transcript(res)
    assert after.findings == before.findings
    assert (after.epochs_checked, after.accepts_checked) == \
        (before.epochs_checked, before.accepts_checked)

    res = run(SimConfig(node_count=4, seed=104, duration=40 * SECOND),
              NodeConfig(), PROD)
    row = cost_table(res, 4)
    res.metrics.key_events.clear()
    assert cost_table(res, 4) == row


def test_audit_reads_secrets_from_node_logs():
    """Secrets come from each node's own ``secret_log``: with a member's
    log forgotten, every epoch it contributed to has an unknown
    contribution, and with the leader's forgotten, an unknown leader
    secret; either way those epochs get no expected key, so their KEY
    records read as unannounced."""
    res = _toy_run()
    _, msg = _keyed(res)
    member = msg.entries[0].participant_id
    res.nodes[member].secret_log.clear()
    report = audit_transcript(res)
    assert report.findings == reference_audit(res).findings
    assert {k for k, _ in report.findings} == {"unknown_contribution",
                                                "unannounced_epoch"}
    assert all(f"member={member}" in detail for kind, detail in report.findings
               if kind == "unknown_contribution")

    res.nodes[msg.sender_id].secret_log.clear()
    report = audit_transcript(res)
    assert report.findings == reference_audit(res).findings
    assert {k for k, _ in report.findings} == {"unknown_leader_secret",
                                                "unannounced_epoch"}
