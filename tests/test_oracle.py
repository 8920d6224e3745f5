from collections import Counter
from itertools import combinations

import pytest

from agdh.errors import CountMismatch, MalformedMessage
from agdh.gka_core import derive_session_key
from agdh.group_arith import PROD, TOY, encode_element
from agdh.messages import (
    GroupEntry,
    build_igroup,
    decode,
    encode_canonical,
    encode_signed,
    sign,
)
from agdh.node_fsm import NodeConfig
from agdh.oracle import (
    _ANNOUNCEMENT_NAMES,
    AuditReport,
    _scalar_width,
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
    converged,
    run,
)

EAGER = NodeConfig(eager_rekey=True)


class TestAuditBaseline:
    def test_clean_lossless_run_zero_findings(self):
        res = run(SimConfig(node_count=5, seed=17, duration=60 * SECOND),
                  NodeConfig(), PROD)
        report = audit_transcript(res)
        assert report.clean, report.findings
        assert report.epochs_checked >= 1
        assert report.accepts_checked > 0
        assert "findings=0" in report.render()

    def test_churny_run_zero_findings(self):
        res = run(SimConfig(node_count=6, seed=23, duration=90 * SECOND,
                            schedule=(LeaveAt(40 * SECOND, 3),
                                      CrashAt(60 * SECOND, 5))),
                  EAGER, PROD)
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
                      EAGER, TOY)
            if res.transcript.of_kind("DEGENERATE_EXCLUDED"):
                hit = res
                break
        assert hit is not None, "no degenerate collision in 200 seeds"
        assert converged(hit)
        for kev in hit.metrics.key_events:
            assert kev.group_key != 1
        report = audit_transcript(hit)
        assert report.clean, report.findings

    def test_secret_scan_behaviour(self):
        """The byte scan runs on width-separated groups and stays silent; on
        the 1-byte toy group it is skipped by default because equality there
        is pigeonhole coincidence, but forcing it shows the comparison is
        real.  On PROD the silence is trivial: no wire field has the 20-byte
        scalar width (nonces are 16 bytes, elements 128), so the scan only
        counts sends and compares nothing."""
        res = run(SimConfig(node_count=8, seed=2, duration=60 * SECOND),
                  NodeConfig(), PROD)
        report = audit_transcript(res)
        assert report.sends_scanned > 0
        assert not [f for f in report.findings if f[0] == "secret_leak"]
        # hunt a toy-group coincidence to prove the scanner actually compares
        found = False
        for seed in range(50):
            res = run(SimConfig(node_count=8, seed=seed, duration=40 * SECOND),
                      NodeConfig(), TOY)
            default_report = audit_transcript(res)
            assert default_report.sends_scanned == 0  # auto-skipped
            forced = audit_transcript(res, scan_secrets=True)
            if [f for f in forced.findings if f[0] == "secret_leak"]:
                found = True
                break
        assert found


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


def reference_audit(result, scan_secrets=None) -> AuditReport:
    """The per-accept auditor: decodes wires from the transcript's hex,
    once per use, and verifies each accepted delivery by re-encoding it.
    Its expected key elements come from builtin pow, so comparing it with
    the audit also checks ``oracle_key``'s comb over whole runs."""
    params = result.params
    report = AuditReport()
    if scan_secrets is None:
        scan_secrets = _scalar_width(params) != params.element_width

    def verifies(msg):
        return result.keyring.verify(
            msg.sender_id, encode_canonical(msg, params), msg.signature)

    leader_secret_by_nonce, member_secret = {}, {}
    for node_id, records in result.secrets.items():
        for rec in records:
            if rec.role == "leader":
                leader_secret_by_nonce[(node_id, rec.nonce)] = rec.secret
            else:
                member_secret[(node_id, rec.blinded, rec.nonce)] = rec.secret

    sends = result.transcript.of_kind("SEND")
    composition = {}
    for rec in sends:
        if rec.get("kind") not in _ANNOUNCEMENT_NAMES:
            continue
        if rec.get("entries") == 0:
            continue
        msg = decode(result.wire_by_id[rec.get("id")], params)
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

    for kev in result.metrics.key_events:
        slot = (kev.leader_id, kev.epoch)
        want = expected.get(slot)
        if want is None:
            report.add("unannounced_epoch",
                       f"node={kev.node_id} leader={kev.leader_id} epoch={kev.epoch}")
            continue
        if kev.node_id not in included[slot]:
            report.add("foreign_key",
                       f"node={kev.node_id} not in epoch {kev.epoch} group")
        if kev.derived != want:
            report.add("key_mismatch",
                       f"node={kev.node_id} leader={kev.leader_id} epoch={kev.epoch}")

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

    width = _scalar_width(params)
    secret_encodings = {rec.secret.to_bytes(width, "big")
                        for records in result.secrets.values()
                        for rec in records}
    for rec in sends if scan_secrets else ():
        report.sends_scanned += 1
        msg = decode(result.wire_by_id[rec.get("id")], params)
        fields = [msg.sender_nonce]
        for e in msg.entries:
            fields.append(e.nonce)
            fields.append(encode_element(e.blinded_secret, params))
            if e.blinded_response is not None:
                fields.append(encode_element(e.blinded_response, params))
        for data in fields:
            if len(data) == width and data in secret_encodings:
                report.add("secret_leak",
                           f"send id={rec.get('id')} field={data.hex()}")
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
    member = next(n for n in probe.live
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
    def assert_same(res, scan_secrets=None):
        got = audit_transcript(res, scan_secrets)
        want = reference_audit(res, scan_secrets)
        assert got.findings == want.findings
        assert got.accepts_checked == want.accepts_checked
        assert got.sends_scanned == want.sends_scanned
        assert got.epochs_checked == want.epochs_checked
        return got

    def test_clean_prod_run(self):
        res = run(SimConfig(node_count=8, seed=2, duration=60 * SECOND),
                  NodeConfig(), PROD)
        report = self.assert_same(res)
        assert report.clean and report.sends_scanned > 0

    def test_skip_verify_tampered_injection(self):
        report = self.assert_same(_injected_run(skip_verify=True))
        assert [k for k, _ in report.findings] == ["accepted_unverified"]

    def test_honest_reject_injection(self):
        report = self.assert_same(_injected_run(skip_verify=False))
        assert report.clean

    def test_corrupted_leader_run(self, monkeypatch):
        report = self.assert_same(_corrupted_leader_run(monkeypatch))
        assert "key_mismatch" in {k for k, _ in report.findings}

    def test_forced_toy_scan(self):
        leaks = 0
        for seed in range(6):
            res = run(SimConfig(node_count=8, seed=seed, duration=40 * SECOND),
                      NodeConfig(), TOY)
            self.assert_same(res)
            report = self.assert_same(res, scan_secrets=True)
            leaks += sum(1 for k, _ in report.findings if k == "secret_leak")
        assert leaks > 0


def test_audit_decodes_each_distinct_wire_once(monkeypatch):
    """Rebeacons repeat an announcement's bytes and every member accepts
    it, yet the auditor decodes each distinct wire at most once."""
    import agdh.oracle as oracle

    res = _injected_run(skip_verify=True)
    calls = Counter()
    real = oracle.decode

    def counting(wire, params):
        calls[wire] += 1
        return real(wire, params)

    monkeypatch.setattr(oracle, "decode", counting)
    report = audit_transcript(res, scan_secrets=True)
    assert report.accepts_checked > len(calls) > 0
    assert max(calls.values()) == 1
    assert set(calls) == set(res.wire_by_id.values())


def test_prod_audit_scans_no_wire_for_secrets(monkeypatch):
    """No PROD wire field is as wide as a scalar, so the default audit
    runs the secret comparison on no wire, yet reports what the
    reference auditor reports."""
    import agdh.oracle as oracle

    res = run(SimConfig(node_count=8, seed=2, loss_prob=0.1,
                        duration=60 * SECOND), NodeConfig(), PROD)

    def refuse(self, msg):
        raise AssertionError("a PROD wire was scanned for secrets")

    monkeypatch.setattr(oracle._WireChecks, "_leaks", refuse)
    report = TestAuditEquivalence.assert_same(res)
    assert report.clean
    assert report.sends_scanned == len(res.transcript.of_kind("SEND")) > 0


def test_prod_audit_decodes_only_accepted_or_composed_wires(monkeypatch):
    """No PROD wire field is as wide as a scalar, so the default secret
    scan decodes no send: the audit decodes exactly the distinct wires
    that some node accepted or that announce a group composition."""
    import agdh.oracle as oracle

    res = run(SimConfig(node_count=8, seed=2, loss_prob=0.1,
                        duration=60 * SECOND), NodeConfig(), PROD)
    calls = Counter()
    real = oracle.decode

    def counting(wire, params):
        calls[wire] += 1
        return real(wire, params)

    monkeypatch.setattr(oracle, "decode", counting)
    report = audit_transcript(res)
    sends = res.transcript.of_kind("SEND")
    assert report.clean and report.sends_scanned == len(sends)
    wire_of = res.wire_by_id
    accepted = {wire_of[r.get("id")]
                for r in res.transcript.of_kind("ACCEPT")}
    composed = {wire_of[r.get("id")] for r in sends
                if r.get("kind") in _ANNOUNCEMENT_NAMES
                and r.get("entries") > 0}
    assert set(calls) == accepted | composed
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


def _add_announcement(res, msg):
    """Record ``msg``, signed by its sender, as one more sent announcement."""
    wire = encode_signed(sign(msg, res.keyring, res.params), res.params)
    msg_id = max(res.wire_by_id) + 1
    res.wire_by_id[msg_id] = wire
    res.transcript.records.append(Record(
        res.transcript.records[-1].time, "SEND", msg.sender_id,
        (("id", msg_id), ("kind", "IGROUP"), ("dest", "bcast"),
         ("epoch", msg.epoch), ("entries", len(msg.entries)), ("wire", wire))))


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
    logged = [(node_id, rec) for node_id, records in res.secrets.items()
              for rec in records if rec.role == "member"]
    chosen = next(
        combo for size in range(1, len(logged) + 1)
        for combo in combinations(logged, size)
        if len({node_id for node_id, _ in combo}) == size
        and (1 + sum(rec.secret for _, rec in combo)) % TOY.order == 0)
    entries = [GroupEntry(node_id, rec.nonce, rec.blinded, rec.blinded)
               for node_id, rec in chosen]
    _add_announcement(res, build_igroup(msg.sender_id, msg.sender_nonce, 99,
                                        entries))


def _unannounced_epoch(res):
    kev = res.metrics.key_events[-1]
    res.metrics.key_events.append(kev._replace(epoch=99))


def _foreign_key(res):
    kev = res.metrics.key_events[-1]
    res.metrics.key_events.append(kev._replace(node_id=99))


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
    (_accept_without_wire, "accept_without_wire"),
    (_accepted_malformed, "accepted_malformed"),
])
def test_each_alteration_yields_exactly_its_finding(alter, finding):
    res = _toy_run()
    alter(res)
    report = audit_transcript(res)
    assert [kind for kind, _ in report.findings] == [finding]
    assert report.findings == reference_audit(res).findings
