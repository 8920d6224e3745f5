"""Per-node protocol state machine.

A node is a member, a candidate, or the group leader:

* Leaders broadcast the group announcement every beacon period, fold
  collected contributions into a fresh key on every membership change or
  renewal, and expire members that stop replying.
* Members reply with their contribution every period, compute the session
  key from announcements that echo their contribution, and start a
  randomized-backoff election when the leader falls silent.
* Candidates are members whose silence timer fired; the backoff slot keeps
  simultaneous self-elections rare, and the smallest-id rule resolves the
  rest.

The transition function is pure in the operational sense: no I/O, no clock,
no global randomness.  Events carry the current time, the node owns a seeded
random source, and every outgoing message, timer update, and key change is
returned in :class:`FsmOutput` for the harness to act on.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import NamedTuple

from .errors import ConfigError, DegenerateKey, MalformedMessage
from .gka_core import (
    GroupEntry,
    blind,
    compute_key_leader,
    compute_key_member,
    derive_session_key,
    recover_leader_blind,
)
from .group_arith import ExpCounter, GroupElement, GroupParams, random_scalar
from .messages import (
    Message,
    MessageKind,
    build_del,
    build_igroup,
    build_ireply,
    decode,
    read_header,
    resign,
    sign_and_encode,
    verify,
)

SECOND = 1_000_000  # all durations are integer microseconds


class Mode(Enum):
    MEMBER = "member"
    CANDIDATE = "candidate"
    LEADER = "leader"


class TimerKind(Enum):
    BEACON = "beacon"
    REPLY = "reply"
    SILENCE = "silence"
    BACKOFF = "backoff"
    RENEWAL = "renewal"


# Enum members as module globals, which every step reads: read through its
# class, a member costs about 0.1 us on CPython 3.11.
_IGROUP, _IREPLY = MessageKind.IGROUP, MessageKind.IREPLY
_MEMBER, _CANDIDATE, _LEADER = Mode
_BEACON, _REPLY, _SILENCE, _BACKOFF, _RENEWAL = TimerKind


class NodeConfig(NamedTuple):
    """Protocol timing knobs.  Defaults: 5 s beacons, 20 min renewals,
    3 missed beacons before presuming departure, backoff window of 20 slots
    of 100 ms, jitter up to a tenth of the beacon period.  ``eager_rekey``
    is no knob (a leader always rekeys on a join, no node reads the field and
    ``validate`` refuses ``False``): it stays only because the benchmark
    workloads, ``perfbench/workloads.py``, pass ``eager_rekey=True``."""

    period_t: int = 5 * SECOND
    renew_p: int = 20 * 60 * SECOND
    miss_k: int = 3
    backoff_window: int = 20
    slot_trtd: int = 100_000
    jitter_max: int = 500_000
    eager_rekey: bool = True

    def validate(self) -> "NodeConfig":
        if min(self.period_t, self.renew_p, self.slot_trtd) <= 0:
            raise ConfigError("durations must be positive")
        if not 0 <= self.jitter_max < self.period_t:
            raise ConfigError("jitter_max must lie in [0, period_t)")
        if self.miss_k < 2:
            raise ConfigError("miss_k must be at least 2")
        if self.backoff_window < 1:
            raise ConfigError("backoff window must be at least 1")
        if self.renew_p < 2 * self.period_t:
            raise ConfigError("renew period must be a large multiple of the beacon period")
        if not self.eager_rekey:
            raise ConfigError("eager_rekey must be True: a leader rekeys on every join")
        return self

    @property
    def silence_threshold(self) -> int:
        """Gap after which a peer is presumed gone: miss_k full periods plus
        the scheduling jitter, so exactly miss_k - 1 consecutive losses are
        tolerated regardless of jitter phase."""
        return self.miss_k * self.period_t + self.jitter_max


# -- events ------------------------------------------------------------------

class MessageArrived(NamedTuple):
    wire: bytes


class TimerFired(NamedTuple):
    kind: TimerKind


class LocalLeaveRequest(NamedTuple):
    """The node is asked to leave its group gracefully (a crash never
    reaches the node)."""


# -- outputs -----------------------------------------------------------------

class Outgoing(NamedTuple):
    message: Message
    wire: bytes
    dest: int | None  # None means broadcast


class FsmOutput:
    """Everything one step asks of the harness.

    ``log`` holds tuples led by a tag, which the simulator records thus:
    the first ``("reject", reason, ...)`` entry gives the REJECT record its
    reason; a ``("mode", mode, why)`` entry becomes a STATE record; every
    other tag becomes a record named by the tag upper-cased, with the other
    items as fields.  A key the step established travels in
    ``key_changes`` as the very :class:`SessionKey` the node now holds,
    acceptance in ``accepted``.
    """

    __slots__ = ("sends", "timers", "key_changes", "accepted", "log")

    def __init__(self) -> None:
        self.sends: list[Outgoing] = []
        self.timers: list[tuple[TimerKind, int]] = []
        self.key_changes: list[SessionKey] = []
        self.accepted: bool | None = None  # set for message events only
        self.log: list[tuple] = []


class MemberRecord:
    """What a leader knows about one member: its registered share, as its
    IREPLY carried it, the wire that IREPLY came in (the very object, which
    ``decode`` compares a refresh with) and when it was last heard.  The
    leader keeps one per member in its view, ``LeaderRole.view``."""

    __slots__ = ("entry", "wire", "last_heard")

    def __init__(self, entry: GroupEntry, wire: bytes, last_heard: int) -> None:
        self.entry = entry
        self.wire = wire
        self.last_heard = last_heard


class LeaderRole:
    """Everything a node holds only while it leads.  ``Node._lead`` creates
    it, as ``Node.lead``, when the node takes the lead of an empty group, and
    ``Node._demote`` drops it, so none of it outlives the lead.  Every
    registration is folded at once: a new member by a join rekey (or by the
    formation, before the first key), a changed share at the next rekey.
    It holds no secret: ``Node._rekey`` draws the leader's secret for the
    one step that answers the shares, and only ``Node.secret_log``, the
    audit's ground truth, keeps it."""

    __slots__ = ("nonce", "announcement", "view", "blocked")

    def __init__(self, nonce: bytes, announcement: Outgoing) -> None:
        self.nonce = nonce
        self.announcement = announcement  # the latest, which a quiet beacon repeats
        # in registration order: a changed registration moves to the end
        self.view: dict[int, MemberRecord] = {}
        self.blocked: dict[int, int] = {}  # id -> rejected blind


class SessionKey(NamedTuple):
    """An established group key and the symmetric key derived from it: the
    node holds it as ``session``, its step reports it in ``key_changes``,
    and the simulator writes it as a KEY record, from which the auditor
    reads it (``Metrics.key_events`` keeps a copy for the benchmark)."""

    time: int
    node_id: int
    leader_id: int
    epoch: int
    group_key: GroupElement
    derived: bytes


class SecretRecord(NamedTuple):
    """Ground-truth log entry for audits; never leaves the node over the wire."""

    role: str  # "member" or "leader"
    secret: int
    blinded: int | None
    nonce: bytes


class Node:
    """One protocol participant, driven entirely by events."""

    def __init__(self, node_id: int, config: NodeConfig, params: GroupParams,
                 keyring, rng: random.Random):
        config.validate()
        self.node_id = node_id
        self.config = config
        self.params = params
        self.keyring = keyring
        self.rng = rng
        self.counter = ExpCounter()

        self.mode = _MEMBER
        self.leader_id: int | None = None
        self.seq = 0  # send counter for member messages (replay protection)
        self._reply_wire: bytes | None = None  # the latest IREPLY sent
        self._reply_for: GroupEntry | None = None  # the contribution it carries

        self.own_secret: int | None = None
        self.contribution: GroupEntry | None = None  # no response
        self.contribution_leader: int | None = None  # leader it was minted for
        self.prev_secret: int | None = None
        self.prev_contribution: GroupEntry | None = None

        self.session: SessionKey | None = None
        self.last_seen_epoch = 0
        self.leader_epochs: dict[int, int] = {}
        self.last_announcement_wire: bytes | None = None
        self._last_wire_included = False  # our entry was in that announcement
        self.absent_streak = 0  # accepted announcements omitting our entry

        self.lead: LeaderRole | None = None  # set exactly while leading
        self.seen_seq: dict[int, int] = {}  # survives removal and demotion

        self.deadlines: dict[TimerKind, int] = {}
        # periodic timers are anchored to a drift-free grid; the jitter only
        # wobbles each firing, so send spacing averages exactly the period
        self._period_base: dict[TimerKind, int] = {}
        self.secret_log: list[SecretRecord] = []

    # -- public API ----------------------------------------------------------

    def start(self, now: int) -> FsmOutput:
        """Arm the initial timers; the node begins leaderless."""
        out = FsmOutput()
        self._arm(_SILENCE, now + self.config.silence_threshold, out)
        self._arm_periodic(_RENEWAL, now, out, restart=True)
        out.log.append(("mode", self.mode.value, "start"))
        return out

    def start_as_leader(self, now: int) -> FsmOutput:
        """Begin as the chosen group leader: broadcast the initial request
        immediately instead of waiting out an election."""
        out = FsmOutput()
        self._arm_periodic(_RENEWAL, now, out, restart=True)
        self._lead(now, out, "chosen_initial")
        return out

    def handle(self, event, now: int) -> FsmOutput:
        out = FsmOutput()
        if isinstance(event, MessageArrived):
            self._on_wire(event.wire, now, out)
        elif isinstance(event, TimerFired):
            self._on_timer(event.kind, now, out)
        elif isinstance(event, LocalLeaveRequest):
            self._on_leave(out)
        else:
            raise TypeError(f"unknown event {event!r}")
        return out

    def state_digest(self) -> tuple:
        """Protocol-visible state, for no-transition assertions in tests.

        Excludes the send counter: re-sending a contribution is an output,
        not a state change.
        """
        lead = self.lead
        view = (tuple(sorted((pid, r.entry) for pid, r in lead.view.items()))
                if lead else ())
        return (
            self.mode, self.leader_id, self.session,
            self.contribution, self.prev_contribution, view,
            self.last_seen_epoch,
            tuple(sorted(self.leader_epochs.items())),
        )

    # -- helpers --------------------------------------------------------------

    def _jitter(self) -> int:
        if self.config.jitter_max == 0:
            return 0
        return self.rng.randrange(self.config.jitter_max + 1)

    def _arm(self, kind: TimerKind, deadline: int, out: FsmOutput) -> None:
        self.deadlines[kind] = deadline
        out.timers.append((kind, deadline))

    def _arm_periodic(self, kind: TimerKind, now: int, out: FsmOutput,
                      restart: bool = False) -> None:
        base = self._period_base.get(kind)
        if restart or base is None:
            base = now
        base += (self.config.renew_p if kind is _RENEWAL
                 else self.config.period_t)
        self._period_base[kind] = base
        self._arm(kind, base + self._jitter(), out)

    def _disarm(self, kind: TimerKind) -> None:
        self.deadlines.pop(kind, None)
        self._period_base.pop(kind, None)

    @staticmethod
    def _refuse(out: FsmOutput, reason: str, *detail) -> None:
        out.accepted = False
        out.log.append(("reject", reason, *detail))

    def _fresh_nonce(self) -> bytes:
        return self.rng.getrandbits(128).to_bytes(16, "big")

    def _fresh_contribution(self) -> None:
        """Draw a new secret and nonce and blind the secret (one exp)."""
        self.prev_secret = self.own_secret
        self.prev_contribution = self.contribution
        self.own_secret = random_scalar(self.rng, self.params)
        nonce = self._fresh_nonce()
        blinded = blind(self.own_secret, self.params, self.counter)
        self.contribution = GroupEntry(self.node_id, nonce, blinded)
        self.secret_log.append(
            SecretRecord("member", self.own_secret, blinded, nonce))

    def _sign_and_pack(self, msg: Message, dest: int | None) -> Outgoing:
        signed, wire = sign_and_encode(msg, self.keyring, self.params)
        return Outgoing(signed, wire, dest)

    def _send_ireply(self, out: FsmOutput) -> None:
        """Send the contribution under the next seq.  The first IREPLY of a
        contribution object is built and encoded with every check; a later
        one is the last wire re-signed under the new seq, since no other
        field can have changed."""
        assert self.contribution is not None and self.leader_id is not None
        c = self.contribution
        self.seq += 1
        if c is self._reply_for:
            signature, wire = resign(self._reply_wire, self.seq, self.keyring,
                                     self.params)
            msg = Message(_IREPLY, self.node_id, c.nonce, self.seq, (c,), signature)
        else:
            msg, wire = sign_and_encode(
                build_ireply(self.node_id, c.nonce, self.seq, c),
                self.keyring, self.params)
            self._reply_for = c
        self._reply_wire = wire
        out.sends.append(Outgoing(msg, wire, self.leader_id))

    # -- message handling ------------------------------------------------------

    def _on_wire(self, wire: bytes, now: int, out: FsmOutput) -> None:
        # Fast path: the leader re-broadcasts the identical announcement
        # between changes; skip decoding, refresh liveness, and keep the
        # omission accounting running if we were not part of it.
        if (self.mode is _MEMBER and self.leader_id is not None
                and wire == self.last_announcement_wire):
            out.accepted = True
            self._arm(_SILENCE, now + self.config.silence_threshold, out)
            if not self._last_wire_included:
                self._note_absent(self.leader_id, out, just_replied=False)
            return

        # Header triage: an announcement not our own, from a leader we would
        # not follow, is refused from its header alone, before decoding or
        # checking the signature.  A refusal changes no state, so a forged
        # header can only get its own wire refused (see ``agdh.messages``).
        try:
            header = kind, sender, epoch = read_header(wire)
            if kind is _IGROUP and sender != self.node_id:
                if epoch < self.leader_epochs.get(sender, 0):
                    return self._refuse(out, "stale_epoch", sender, epoch)
                # only a member's leader_id can name another node: a
                # leader's is its own id and a candidate's is None
                if self.leader_id is not None and sender > self.leader_id:
                    return self._refuse(out, "larger_leader", sender)
            # a leader decodes a member's refresh against the wire its
            # registered share came in; this is the one view lookup
            rec = (self.lead.view.get(sender)
                   if kind is _IREPLY and self.lead is not None else None)
            msg = decode(wire, self.params, header,
                         None if rec is None else (rec.wire, rec.entry))
        except MalformedMessage as exc:
            return self._refuse(out, "malformed", str(exc))
        if not verify(msg, wire, self.keyring):
            return self._refuse(out, "bad_signature", sender)
        if sender == self.node_id:
            return self._refuse(out, "self_echo", sender)

        if kind is _IGROUP:
            self._on_announcement(msg, wire, now, out)
            return
        # IREPLY and DEL go to the leader and carry the send counter in
        # the epoch field
        if self.mode is not _LEADER:
            self._refuse(out, "not_leader", kind.name, sender)
        elif epoch <= self.seen_seq.get(sender, -1):
            self._refuse(out, "replay_seq", sender, epoch)
        elif kind is _IREPLY:
            self._on_contribution(msg, wire, rec, now, out)
        else:
            self._on_del(msg, now, out)

    def _on_announcement(self, msg: Message, wire: bytes, now: int,
                         out: FsmOutput) -> None:
        """An announcement that passed header triage: from the node's own
        leader, or from a smaller-id leader, or the first one heard, which
        the node follows."""
        sender = msg.sender_id
        if sender == self.leader_id:
            self._process_announcement(msg, wire, now, out, just_replied=False)
            return
        if self.mode is _LEADER:
            self._demote(sender, out)
        elif self.mode is _CANDIDATE:
            self._disarm(_BACKOFF)
            self.mode = _MEMBER
            out.log.append(("mode", "member", "announcement_during_backoff"))
        elif self.leader_id is not None:
            out.log.append(("switch_leader", self.leader_id, sender))
        self._adopt(sender, now, out)
        self._process_announcement(msg, wire, now, out, just_replied=True)

    def _adopt(self, leader: int, now: int, out: FsmOutput) -> None:
        """Join a leader's group and reply at once.

        A new group context gets a fresh contribution; when rejoining the
        leader the current contribution was minted for (e.g. after a silence
        scare), the contribution is reused so the leader's echo of it still
        matches.
        """
        self.leader_id = leader
        self.last_announcement_wire = None
        self.absent_streak = 0
        if self.contribution is None or self.contribution_leader != leader:
            self._fresh_contribution()
            self.contribution_leader = leader
            self.prev_secret = None
            self.prev_contribution = None
        self._send_ireply(out)
        self._arm(_SILENCE, now + self.config.silence_threshold, out)
        self._arm_periodic(_REPLY, now, out, restart=True)
        out.log.append(("adopt", leader))

    def _note_absent(self, sender: int, out: FsmOutput,
                     just_replied: bool) -> None:
        """Accepted announcement omits our entry: keep knocking.  After
        miss_k consecutive omissions, re-mint the contribution: the leader
        may have rejected the current one (degenerate-key exclusion) or lost
        it, and only a different blinded value can make progress."""
        self.absent_streak += 1
        if self.absent_streak >= self.config.miss_k:
            self._fresh_contribution()
            self.absent_streak = 0
            out.log.append(("contribution_reminted", sender))
        if not just_replied:
            out.log.append(("echo_absent", sender))
            self._send_ireply(out)

    def _demote(self, new_leader: int, out: FsmOutput) -> None:
        """Leader heard a smaller-id leader: stop beaconing and drop the
        whole leader role, group and all; the caller then adopts the new
        leader."""
        out.log.append(("mode", "member", f"demoted_to_{new_leader}"))
        self.mode = _MEMBER
        self._disarm(_BEACON)
        self.lead = None

    def _process_announcement(self, msg: Message, wire: bytes, now: int,
                              out: FsmOutput, just_replied: bool) -> None:
        """Handle an announcement from the (now) accepted leader.  Every
        check, the key derivation included, precedes the first change of
        state, so a refused announcement leaves none behind."""
        sender, entries = msg.sender_id, msg.entries
        # one pass over the entries: their ids and responses as columns
        ids, _, _, responses = zip(*entries) if entries else ((),) * 4
        my_entry = (entries[ids.index(self.node_id)] if self.node_id in ids
                    else None)

        fresh: SessionKey | None = None
        if my_entry is not None:
            echoed = GroupEntry(self.node_id, my_entry.nonce,
                                my_entry.blinded_secret)
            if echoed == self.contribution:
                secret = self.own_secret
            elif echoed == self.prev_contribution:
                # the leader has not folded our refresh yet; the echoed key
                # legitimately uses the previous secret
                secret = self.prev_secret
            else:
                self._refuse(out, "wrong_echo", sender, msg.epoch)
                if not just_replied:
                    self._send_ireply(out)
                return
            if my_entry.blinded_response == 1:
                # the response to the blind of a secret in [1, q-1] is never
                # the identity; recovering from one gives the leader blind
                # 1, and a key any eavesdropper can compute from the wire
                return self._refuse(out, "identity_response", sender)
            held = self.session
            if held is None or (held.leader_id, held.epoch) != (sender, msg.epoch):
                leader_blind = recover_leader_blind(
                    my_entry.blinded_response, secret, self.params, self.counter)
                key = compute_key_member(leader_blind, responses, self.params)
                try:
                    fresh = SessionKey(
                        now, self.node_id, sender, msg.epoch, key,
                        derive_session_key(key, msg.epoch, self.params))
                except DegenerateKey:
                    # a correct leader never announces an identity key
                    return self._refuse(out, "degenerate_announcement", sender)

        out.accepted = True
        self.leader_epochs[sender] = max(self.leader_epochs.get(sender, 0), msg.epoch)
        self.last_seen_epoch = max(self.last_seen_epoch, msg.epoch)
        self.last_announcement_wire = wire
        self._last_wire_included = my_entry is not None
        self._arm(_SILENCE, now + self.config.silence_threshold, out)

        if my_entry is None:
            self._note_absent(sender, out, just_replied)
            return
        self.absent_streak = 0
        if echoed == self.contribution:
            self.prev_secret = None
            self.prev_contribution = None
        if fresh is not None:  # otherwise already keyed at this epoch
            self.session = fresh
            out.key_changes.append(fresh)

    def _on_contribution(self, msg: Message, wire: bytes,
                         rec: MemberRecord | None, now: int,
                         out: FsmOutput) -> None:
        """A verified, fresh IREPLY; ``rec`` is the sender's record in the
        view, if any."""
        sender = msg.sender_id
        entry = msg.entries[0]
        if entry.blinded_secret == 1:
            # a valid secret lies in [1, q-1], so its blind is never the
            # identity; folding one would cancel the freshness guarantee
            return self._refuse(out, "identity_contribution", sender)
        self.seen_seq[sender] = msg.epoch
        out.accepted = True
        lead = self.lead
        if lead.blocked.get(sender) == entry.blinded_secret:
            out.log.append(("blocked_contribution", sender))
            return
        # a different value lifts the block; an excluded member left the
        # view, so it registers as new and the join rekey below folds it
        lead.blocked.pop(sender, None)

        if rec is not None and rec.entry == entry:
            rec.last_heard = now
            return
        # a new or changed registration goes to the end of the view
        lead.view.pop(sender, None)
        lead.view[sender] = MemberRecord(entry, wire, now)
        out.log.append(("register", sender, "new" if rec is None else "update"))
        if rec is None and self.session is not None:
            self._rekey(now, out, reason="join")
        # a changed share waits for the next rekey

    def _on_del(self, msg: Message, now: int, out: FsmOutput) -> None:
        sender = msg.sender_id
        rec = self.lead.view.get(sender)
        if rec is not None and msg.sender_nonce != rec.entry.nonce:
            return self._refuse(out, "del_nonce_mismatch", sender)
        self.seen_seq[sender] = msg.epoch
        out.accepted = True
        if rec is None:
            out.log.append(("del_unknown", sender))
            return
        del self.lead.view[sender]
        out.log.append(("withdraw", sender))
        self._after_removal(now, out)

    def _after_removal(self, now: int, out: FsmOutput) -> None:
        if self.lead.view:
            self._rekey(now, out, reason="removal")
        else:
            self._dissolve(out)

    def _dissolve(self, out: FsmOutput) -> None:
        """The group shrank to just the leader: no session to share."""
        if self.session is not None:
            out.log.append(("dissolve",))
        self.session = None
        self.lead.announcement = self._empty_announcement(self.lead.nonce)

    # -- timers ----------------------------------------------------------------

    def _on_timer(self, kind: TimerKind, now: int, out: FsmOutput) -> None:
        if self.deadlines.get(kind) != now:
            return  # superseded deadline
        self.deadlines.pop(kind, None)  # keep the periodic base anchored
        _TIMER_HANDLERS[kind](self, now, out)

    def _on_silence(self, now: int, out: FsmOutput) -> None:
        if self.mode is not _MEMBER:
            return
        if self.leader_id is not None:
            out.log.append(("leader_lost", self.leader_id))
        self.leader_id = None
        self.last_announcement_wire = None
        self._disarm(_REPLY)
        self.mode = _CANDIDATE
        slot = self.rng.randint(1, self.config.backoff_window)
        self._arm(_BACKOFF, now + slot * self.config.slot_trtd, out)
        out.log.append(("mode", "candidate", f"slot_{slot}"))

    def _on_backoff(self, now: int, out: FsmOutput) -> None:
        if self.mode is _CANDIDATE:
            self._lead(now, out, "backoff_won")

    def _lead(self, now: int, out: FsmOutput, why: str) -> None:
        """Take the lead of an empty group with a new leader role: broadcast
        its announcement at once and beacon from now on."""
        self.mode = _LEADER
        self.leader_id = self.node_id
        nonce = self._fresh_nonce()
        self.lead = LeaderRole(nonce, self._empty_announcement(nonce))
        self.session = None
        out.log.append(("mode", "leader", why))
        out.sends.append(self.lead.announcement)
        self._arm_periodic(_BEACON, now, out, restart=True)

    def _empty_announcement(self, nonce: bytes) -> Outgoing:
        msg = build_igroup(self.node_id, nonce, self.last_seen_epoch, [])
        return self._sign_and_pack(msg, None)

    def _on_beacon(self, now: int, out: FsmOutput) -> None:
        lead = self.lead
        if lead is None:
            return
        queued = len(out.sends)
        expired = [pid for pid, rec in lead.view.items()
                   if now - rec.last_heard >= self.config.silence_threshold]
        if expired:
            for pid in expired:
                del lead.view[pid]
            out.log.append(("expire", tuple(sorted(expired))))
            self._after_removal(now, out)
        elif self.session is None and lead.view:
            # group formation: fold everything heard so far
            self._rekey(now, out, reason="formation")
        if len(out.sends) == queued:
            # nothing changed: repeat the previous announcement bit for bit
            out.sends.append(lead.announcement)
        self._arm_periodic(_BEACON, now, out)

    def _on_reply(self, now: int, out: FsmOutput) -> None:
        if self.mode is _MEMBER and self.leader_id is not None:
            self._send_ireply(out)
            self._arm_periodic(_REPLY, now, out)

    def _on_renewal(self, now: int, out: FsmOutput) -> None:
        self._arm_periodic(_RENEWAL, now, out)
        if self.mode is _LEADER:
            out.log.append(("renewal",))
            if self.lead.view:
                self._rekey(now, out, reason="renewal")
            else:
                self.lead.nonce = self._fresh_nonce()
                self.lead.announcement = self._empty_announcement(self.lead.nonce)
        elif self.mode is _MEMBER and self.leader_id is not None:
            out.log.append(("renewal",))
            self._fresh_contribution()
            # carried by the next periodic reply; the leader folds it at its
            # next rekey

    # -- leader rekey ------------------------------------------------------------

    def _rekey(self, now: int, out: FsmOutput, reason: str) -> None:
        """Resample the leader secret, fold the registered contributions, and
        broadcast the rebuilt announcement.

        The view, ``self.lead.view``, is kept in the order in which
        registrations last changed, and the announcement lists its entries in
        that order.  If the key degenerates to the identity (1 + sum of member
        secrets divisible by the group order), the view's last entry, the most
        recently changed contribution, is excluded and blocklisted (in
        ``self.lead.blocked``) until that member sends a different one; this
        terminates with probability 1 because the member renews its
        contribution periodically.
        """
        lead = self.lead
        while True:
            secret = random_scalar(self.rng, self.params)
            lead.nonce = self._fresh_nonce()
            try:
                key, entries = compute_key_leader(
                    secret, [r.entry for r in lead.view.values()],
                    self.params, self.counter)
                break
            except DegenerateKey:
                victim_id, victim = lead.view.popitem()
                lead.blocked[victim_id] = victim.entry.blinded_secret
                out.log.append(("degenerate_excluded", victim_id))
                if not lead.view:
                    self._dissolve(out)
                    out.sends.append(lead.announcement)
                    return

        self.secret_log.append(SecretRecord("leader", secret, None, lead.nonce))
        epoch = self.last_seen_epoch + 1
        self.last_seen_epoch = epoch
        self.session = SessionKey(now, self.node_id, self.node_id, epoch, key,
                                  derive_session_key(key, epoch, self.params))
        out.key_changes.append(self.session)

        msg = build_igroup(self.node_id, lead.nonce, epoch, entries)
        lead.announcement = self._sign_and_pack(msg, None)
        out.sends.append(lead.announcement)
        out.log.append(("rekey", reason, epoch))

    # -- local leave ---------------------------------------------------------------

    def _on_leave(self, out: FsmOutput) -> None:
        if (self.mode is _MEMBER and self.leader_id is not None
                and self.contribution is not None):
            self.seq += 1
            msg = build_del(self.node_id, self.contribution.nonce, self.seq)
            out.sends.append(self._sign_and_pack(msg, self.leader_id))


# _on_beacon, _on_reply, _on_silence, _on_backoff and _on_renewal by kind
_TIMER_HANDLERS = {kind: getattr(Node, f"_on_{kind.value}") for kind in TimerKind}
