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


class _WireChecks:
    """Each distinct wire decoded and signature-checked at most once.

    Only a small verdict is kept per wire, never the decoded message:
    None, ``("malformed", reason)`` or ``("unverified", kind name)``.
    """

    def __init__(self, result: SimResult):
        self._params = result.params
        self._keyring = result.keyring
        self._problems: dict[bytes, tuple | None] = {}

    def decode(self, wire: bytes) -> Message | None:
        """Record a new wire's verdict; its message, or None if malformed."""
        try:
            msg = decode(wire, self._params)
        except MalformedMessage as exc:
            self._problems[wire] = ("malformed", str(exc))
            return None
        self._problems[wire] = None if verify(msg, wire, self._keyring) \
            else ("unverified", msg.kind.name)
        return msg

    def problem(self, wire: bytes) -> tuple | None:
        if wire not in self._problems:
            self.decode(wire)
        return self._problems[wire]


def audit_transcript(result: SimResult) -> AuditReport:
    """Cross-check a finished run against ground truth.

    Checks, per announced epoch: the key every KEY record names equals the
    direct-exponent recomputation from the nodes' logged secrets, is never
    the identity element, and is held only by a node the epoch's group
    includes.  Also: every sent announcement decodes, and every accepted
    message re-verifies under the keyring.
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
        if msg is None:
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
    protocol message count is over distinct logical messages.  The counted
    messages are the first announcement with entries and the contributions
    sent before it.  Throughout, "before" means earlier in the transcript,
    so of two records at one instant the first one listed comes first.

    One pass over the transcript in record order.  A counted message's
    round is its happened-before depth (Lamport, CACM 1978): one more than
    the deepest counted message delivered to its sender before it was
    sent.  The rounds are the deepest such chain.
    """
    params = result.params
    depth: dict[int, int] = {}  # counted message id -> its round
    reached: dict[int, int] = {}  # node -> deepest counted message delivered
    contributions: set[tuple] = set()
    establishing = None
    key_times: list[int] = []
    for rec in result.transcript:
        kind = rec.kind
        if establishing is not None:
            if kind == "KEY" and rec.get("leader") == leader_id \
                    and rec.get("epoch") == epoch:
                key_times.append(rec.time)
        elif kind == "DELIVER":
            sent_depth = depth.get(rec.get("id"), 0)
            if sent_depth > reached.get(rec.node, 0):
                reached[rec.node] = sent_depth
        elif kind == "SEND":
            sent_kind = rec.get("kind")
            if sent_kind in _CONTRIBUTION_NAMES:
                msg = decode(rec.get("wire"), params)
                entry = msg.entries[0]
                logical = (msg.sender_id, entry.nonce, entry.blinded_secret)
                if logical in contributions:
                    continue  # a retransmission
                contributions.add(logical)
            elif sent_kind in _ANNOUNCEMENT_NAMES and rec.get("entries"):
                establishing = decode(rec.get("wire"), params)
                leader_id, epoch = establishing.sender_id, establishing.epoch
                t_end = rec.time
            else:
                continue
            depth[rec.get("id")] = reached.get(rec.node, 0) + 1
    if establishing is None:
        raise CountMismatch("no keyed announcement in transcript")

    messages = len(contributions) + 1
    broadcasts = 1
    rounds = max(depth.values())

    # exponentiations up to the instant the last member derives the key
    t_conv = max(key_times, default=t_end)
    expos: dict[int, int] = {}
    for when, node_id, delta in result.metrics.exp_events:
        if when <= t_conv:
            expos[node_id] = expos.get(node_id, 0) + delta

    member_ids = {e.participant_id for e in establishing.entries}
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
