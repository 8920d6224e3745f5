"""Independent verification paths, used only by tests and the CLI.

The auditor recomputes every announced key directly in the exponent from the
ground-truth secrets (which the nodes log locally and never send), re-verifies
every message a node accepted, and scans outgoing wire bytes for secret
material.  It deliberately shares nothing with the leader/member computation
paths beyond the wire codec, whose decode consults ``group_arith``'s memo
of known elements: its expected keys come from ``gka_core.oracle_key``'s
own fixed-base comb, which uses neither that memo nor ``group_arith``'s
kernel, so corrupting either path trips it.
"""

from __future__ import annotations

import contextlib
from typing import NamedTuple

from .errors import CountMismatch, MalformedMessage
from .gka_core import NONCE_LEN, derive_session_key, oracle_key
from .group_arith import GroupParams, encode_element
from .messages import Message, MessageKind, decode, verify
from .simnet import Record, SimResult

_ANNOUNCEMENT_NAMES = {MessageKind.IGROUP.name}
_CONTRIBUTION_NAMES = {MessageKind.IREPLY.name}


class AuditReport:
    __slots__ = ("findings", "epochs_checked", "accepts_checked",
                 "sends_scanned")

    def __init__(self) -> None:
        self.findings: list = []
        self.epochs_checked = 0
        self.accepts_checked = 0
        self.sends_scanned = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def add(self, kind: str, detail: str) -> None:
        self.findings.append((kind, detail))

    def render(self) -> str:
        lines = [
            f"audit: epochs={self.epochs_checked}"
            f" accepts={self.accepts_checked}"
            f" sends={self.sends_scanned}"
            f" findings={len(self.findings)}"
        ]
        lines += [f"FINDING {kind} {detail}" for kind, detail in self.findings]
        return "\n".join(lines) + "\n"


def _scalar_width(params: GroupParams) -> int:
    return (params.order.bit_length() + 7) // 8


class _WireChecks:
    """Each distinct wire decoded and signature-checked at most once.

    Only a small verdict is kept per wire, never the decoded message:
    ``(problem, leaks)``, where ``problem`` is None, ``("malformed",
    reason)`` or ``("unverified", kind name)``, and ``leaks`` holds the
    fields that equal a secret's encoding (empty unless scanning).
    """

    def __init__(self, result: SimResult, secret_encodings: set | None):
        self._params = result.params
        self._keyring = result.keyring
        self._secrets = secret_encodings
        self._width = _scalar_width(result.params)
        self._facts: dict[bytes, tuple] = {}

    def decode(self, wire: bytes) -> Message:
        """Decode a wire not seen before and record its facts."""
        try:
            msg = decode(wire, self._params)
        except MalformedMessage as exc:
            self._facts[wire] = (("malformed", str(exc)), ())
            raise
        problem = None
        if not verify(msg, wire, self._keyring):
            problem = ("unverified", msg.kind.name)
        leaks = self._leaks(msg) if self._secrets else ()
        self._facts[wire] = (problem, leaks)
        return msg

    def facts(self, wire: bytes) -> tuple:
        found = self._facts.get(wire)
        if found is None:
            with contextlib.suppress(MalformedMessage):
                self.decode(wire)
            found = self._facts[wire]
        return found

    def _leaks(self, msg: Message) -> tuple:
        # Only fields as wide as a scalar can equal a secret's encoding, so
        # elements are encoded only when the two widths agree.
        width, params = self._width, self._params
        fields = [msg.sender_nonce]
        for e in msg.entries:
            fields.append(e.nonce)
            if params.element_width == width:
                fields.append(encode_element(e.blinded_secret, params))
                if e.blinded_response is not None:
                    fields.append(encode_element(e.blinded_response, params))
        return tuple(data for data in fields
                     if len(data) == width and data in self._secrets)


def audit_transcript(result: SimResult, scan_secrets: bool | None = None) -> AuditReport:
    """Cross-check a finished run against ground truth.

    Checks, per announced epoch: the key every node derived equals the
    direct-exponent recomputation from the logged secrets, and is never the
    identity element.  Also: every accepted message re-verifies under the
    keyring, and no message field carries a secret's encoding.  Each
    distinct wire is decoded and verified at most once; a wire accepted by
    many nodes yields one finding per offending ACCEPT record.

    The secret scan compares raw bytes, so on a group whose element width
    equals the scalar width (the toy group: one byte each) equality is
    pigeonhole coincidence, not leakage.  By default the scan runs only when
    the widths differ; pass ``scan_secrets=True`` to force it.  On PROD the
    default scan compares nothing: no wire field has the 20-byte scalar
    width (nonces are 16 bytes and elements 128), so it builds no set of
    secret encodings, scans no wire the other checks decode, decodes no
    send and only counts them.
    """
    params = result.params
    report = AuditReport()
    if scan_secrets is None:
        scan_secrets = _scalar_width(params) != params.element_width

    leader_secret_by_nonce: dict[tuple[int, bytes], int] = {}
    member_secret: dict[tuple[int, int, bytes], int] = {}
    for node_id, records in result.secrets.items():
        for rec in records:
            if rec.role == "leader":
                leader_secret_by_nonce[(node_id, rec.nonce)] = rec.secret
            else:
                member_secret[(node_id, rec.blinded, rec.nonce)] = rec.secret
    # Only a field as wide as a scalar can equal a secret's encoding; with
    # no such field there is nothing to compare, so no wire is scanned.
    width = _scalar_width(params)
    comparable = width in (NONCE_LEN, params.element_width)
    secret_encodings = {
        rec.secret.to_bytes(width, "big")
        for records in result.secrets.values() for rec in records
    } if scan_secrets and comparable else None
    wires = _WireChecks(result, secret_encodings)

    # --- reconstruct announced group compositions -------------------------
    sends = result.transcript.of_kind("SEND")
    composition: dict[tuple[int, int], tuple] = {}
    composed: set[bytes] = set()
    for rec in sends:
        if rec.get("kind") not in _ANNOUNCEMENT_NAMES or not rec.get("entries"):
            continue
        wire = rec.get("wire")
        if wire in composed:
            continue  # a rebeacon: same bytes, same key and shape
        composed.add(wire)
        msg = wires.decode(wire)
        key = (msg.sender_id, msg.epoch)
        shape = tuple((e.participant_id, e.nonce, e.blinded_secret)
                      for e in msg.entries)
        previous = composition.get(key)
        if previous is not None:
            if previous[1] != shape:
                report.add("epoch_reuse",
                           f"leader={msg.sender_id} epoch={msg.epoch}")
            continue
        composition[key] = (msg.sender_nonce, shape)

    expected: dict[tuple[int, int], bytes] = {}
    included: dict[tuple[int, int], set] = {}
    for (leader_id, epoch), (leader_nonce, shape) in composition.items():
        r_l = leader_secret_by_nonce.get((leader_id, leader_nonce))
        if r_l is None:
            report.add("unknown_leader_secret",
                       f"leader={leader_id} epoch={epoch}")
            continue
        member_secrets = []
        ok = True
        for pid, nonce, blinded in shape:
            secret = member_secret.get((pid, blinded, nonce))
            if secret is None:
                report.add("unknown_contribution",
                           f"leader={leader_id} epoch={epoch} member={pid}")
                ok = False
                break
            member_secrets.append(secret)
        if not ok:
            continue
        key_element = oracle_key(r_l, member_secrets, params)
        if key_element == 1:
            report.add("identity_key", f"leader={leader_id} epoch={epoch}")
            continue
        expected[(leader_id, epoch)] = derive_session_key(key_element, epoch, params)
        included[(leader_id, epoch)] = {pid for pid, _, _ in shape} | {leader_id}
    report.epochs_checked = len(expected)

    # --- every derived key must match the oracle --------------------------
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

    # --- every accepted message must re-verify ----------------------------
    for rec in result.transcript.of_kind("ACCEPT"):
        report.accepts_checked += 1
        wire = result.wire_by_id.get(rec.get("id"))
        if wire is None:
            report.add("accept_without_wire", f"id={rec.get('id')}")
            continue
        problem, _ = wires.facts(wire)
        if problem is None:
            continue
        what, detail = problem
        if what == "malformed":
            report.add("accepted_malformed", f"id={rec.get('id')}: {detail}")
        else:
            report.add("accepted_unverified",
                       f"node={rec.node} id={rec.get('id')} kind={detail}")

    # --- no protocol message may carry a secret's encoding ----------------
    # A send with no comparable field need not be decoded to know it leaks
    # nothing, but it is still counted.
    for rec in sends if scan_secrets else ():
        report.sends_scanned += 1
        if not comparable:
            continue
        _, leaks = wires.facts(rec.get("wire"))
        for data in leaks:
            report.add("secret_leak",
                       f"send id={rec.get('id')} field={data.hex()}")
    return report


class CostRow(NamedTuple):
    group_size: int
    member_expos: int
    leader_expos: int
    messages: int
    broadcasts: int
    rounds: int

    def render(self) -> str:
        return (f"m={self.group_size} expo/member={self.member_expos}"
                f" expo/leader={self.leader_expos} messages={self.messages}"
                f" broadcasts={self.broadcasts} rounds={self.rounds}")


def cost_table(result: SimResult, m: int) -> CostRow:
    """Measure one initial key establishment and check it against the
    expected cost row: 2 exponentiations per member, m for the leader,
    m protocol messages of which 1 broadcast, 2 causal rounds.

    Empty beacons are excluded (they are the group-discovery round), and
    periodic retransmissions of an unchanged contribution count once: the
    protocol message count is over distinct logical messages.
    """
    params = result.params
    # one pass in time order: every delivery, the first announcement with
    # entries, and the distinct member contributions sent up to its instant
    delivered_at: dict[int, list[tuple[int, int]]] = {}
    contributions: dict[tuple, Record] = {}
    establishing = None
    for rec in result.transcript:
        if rec.kind == "DELIVER":
            delivered_at.setdefault(rec.get("id"), []).append((rec.time, rec.node))
        if rec.kind != "SEND":
            continue
        kind = rec.get("kind")
        if kind in _CONTRIBUTION_NAMES and (
                establishing is None or rec.time <= establishing.time):
            msg = decode(rec.get("wire"), params)
            entry = msg.entries[0]
            logical = (msg.sender_id, entry.nonce, entry.blinded_secret)
            contributions.setdefault(logical, rec)
        elif kind in _ANNOUNCEMENT_NAMES and establishing is None \
                and rec.get("entries"):
            establishing = rec
    if establishing is None:
        raise CountMismatch("no keyed announcement in transcript")
    establishing_msg = decode(establishing.get("wire"), params)
    leader_id, epoch = establishing_msg.sender_id, establishing_msg.epoch
    t_end = establishing.time

    messages = len(contributions) + 1
    broadcasts = 1

    # causal rounds: longest dependency chain among the counted messages,
    # where a message depends on any counted message delivered to its sender
    # before it was sent
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

    # exponentiations up to the instant the last member derives the key
    key_times = [k.time for k in result.metrics.key_events
                 if k.leader_id == leader_id and k.epoch == epoch]
    t_conv = max(key_times) if key_times else t_end
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
    return CostRow(m, 2, leader_expos, messages, broadcasts, rounds)
