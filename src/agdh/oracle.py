"""Independent verification paths, used only by tests and the CLI.

The auditor reads a finished run from one record, the transcript, plus the
ground-truth secrets each node logged locally and never sent (its
``secret_log``): the announced compositions from SEND records, every key a
node derived from KEY records, and every accepted message from ACCEPT
records.  It recomputes each announced key directly in the exponent and
re-verifies every accepted message.  It deliberately shares nothing with
the leader/member computation paths beyond the wire codec, whose decode
consults ``group_arith``'s memo of known elements: its expected keys come
from ``gka_core.oracle_key``'s own fixed-base comb, which uses neither that
memo nor ``group_arith``'s kernel, so corrupting either path trips it.
"""

from __future__ import annotations

import contextlib
from typing import NamedTuple

from .errors import CountMismatch, MalformedMessage
from .gka_core import derive_session_key, oracle_key
from .messages import Message, MessageKind, decode, verify
from .simnet import Record, SimResult

_ANNOUNCEMENT_NAMES = {MessageKind.IGROUP.name}
_CONTRIBUTION_NAMES = {MessageKind.IREPLY.name}


class AuditReport:
    __slots__ = ("findings", "epochs_checked", "accepts_checked")

    def __init__(self) -> None:
        self.findings: list = []
        self.epochs_checked = 0
        self.accepts_checked = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def add(self, kind: str, detail: str) -> None:
        self.findings.append((kind, detail))

    def render(self) -> str:
        lines = [
            f"audit: epochs={self.epochs_checked}"
            f" accepts={self.accepts_checked}"
            f" findings={len(self.findings)}"
        ]
        lines += [f"FINDING {kind} {detail}" for kind, detail in self.findings]
        return "\n".join(lines) + "\n"


class _WireChecks:
    """Each distinct wire decoded and signature-checked at most once.

    Only a small verdict is kept per wire, never the decoded message:
    None, ``("malformed", reason)`` or ``("unverified", kind name)``.
    """

    def __init__(self, result: SimResult):
        self._params = result.params
        self._keyring = result.keyring
        self._problems: dict[bytes, tuple | None] = {}

    def decode(self, wire: bytes) -> Message:
        """Decode a wire not seen before and record its verdict."""
        try:
            msg = decode(wire, self._params)
        except MalformedMessage as exc:
            self._problems[wire] = ("malformed", str(exc))
            raise
        self._problems[wire] = None if verify(msg, wire, self._keyring) \
            else ("unverified", msg.kind.name)
        return msg

    def problem(self, wire: bytes) -> tuple | None:
        if wire not in self._problems:
            with contextlib.suppress(MalformedMessage):
                self.decode(wire)
        return self._problems[wire]


def audit_transcript(result: SimResult) -> AuditReport:
    """Cross-check a finished run against ground truth.

    Checks, per announced epoch: the key every KEY record names equals the
    direct-exponent recomputation from the nodes' logged secrets, is never
    the identity element, and is held only by a node the epoch's group
    includes.  Also: every accepted message re-verifies under the keyring.
    One pass over the transcript gathers the announcements, keys and
    accepts; each distinct wire is decoded and verified at most once, and a
    wire accepted by many nodes yields one finding per offending ACCEPT
    record.
    """
    params = result.params
    report = AuditReport()

    leader_secret_by_nonce: dict[tuple[int, bytes], int] = {}
    member_secret: dict[tuple[int, int, bytes], int] = {}
    for node_id, node in result.nodes.items():
        for rec in node.secret_log:
            if rec.role == "leader":
                leader_secret_by_nonce[(node_id, rec.nonce)] = rec.secret
            else:
                member_secret[(node_id, rec.blinded, rec.nonce)] = rec.secret
    wires = _WireChecks(result)

    # --- one pass: announced compositions, keys and accepts ---------------
    composition: dict[tuple[int, int], tuple] = {}
    composed: set[bytes] = set()
    keys: list[Record] = []
    accepts: list[Record] = []
    for rec in result.transcript:
        kind = rec.kind
        if kind == "ACCEPT":
            accepts.append(rec)
            continue
        if kind == "KEY":
            keys.append(rec)
            continue
        if kind != "SEND" or rec.get("kind") not in _ANNOUNCEMENT_NAMES \
                or not rec.get("entries"):
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
    for rec in keys:
        node_id, leader_id, epoch = rec.node, rec.get("leader"), rec.get("epoch")
        slot = (leader_id, epoch)
        want = expected.get(slot)
        if want is None:
            report.add("unannounced_epoch",
                       f"node={node_id} leader={leader_id} epoch={epoch}")
            continue
        if node_id not in included[slot]:
            report.add("foreign_key", f"node={node_id} not in epoch {epoch} group")
        if rec.get("key") != want:
            report.add("key_mismatch",
                       f"node={node_id} leader={leader_id} epoch={epoch}")

    # --- every accepted message must re-verify ----------------------------
    for rec in accepts:
        report.accepts_checked += 1
        wire = result.wire_by_id.get(rec.get("id"))
        if wire is None:
            report.add("accept_without_wire", f"id={rec.get('id')}")
            continue
        problem = wires.problem(wire)
        if problem is None:
            continue
        what, detail = problem
        if what == "malformed":
            report.add("accepted_malformed", f"id={rec.get('id')}: {detail}")
        else:
            report.add("accepted_unverified",
                       f"node={rec.node} id={rec.get('id')} kind={detail}")
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
    # one pass in time order: every delivery and key, the first announcement
    # with entries, and the distinct member contributions sent up to its
    # instant
    delivered_at: dict[int, list[tuple[int, int]]] = {}
    keys: list[Record] = []
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
    key_times = [rec.time for rec in keys
                 if rec.get("leader") == leader_id and rec.get("epoch") == epoch]
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
