"""Deterministic discrete-event network simulator.

Single-hop lossy broadcast with uniform latency, partitions, and node churn,
driving one :class:`~agdh.node_fsm.Node` per participant.  Everything is
derived from the run seed: per-node protocol randomness, channel loss, and
latency draws.  Events are processed in (time, insertion-sequence) order, so
identical inputs produce byte-identical transcripts.

The transcript is the run's complete observable history: every send,
delivery, drop, state transition, and key change, one line per event, and
message counts are read from it.  A :class:`Record` holds each field's
value as given; only :meth:`Record.render` formats it (``bytes`` as hex).
A SEND record's ``wire`` is the very object in ``SimResult.wire_by_id``, so
each wire is held once.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, NamedTuple

from .errors import ConfigError, OverlapError, UnknownNode
from .group_arith import GroupParams, PROD
from .node_fsm import (
    LocalLeaveRequest,
    MessageArrived,
    Mode,
    Node,
    NodeConfig,
    SECOND,
    Outgoing,
    TimerFired,
)
from .messages import MAX_ID, HmacKeyRing

# queue entry tags; the unique sequence number keeps payloads uncompared
_TIMER, _DELIVER, _SCHED = 0, 1, 2

# Longest run accepted: beacons keep the event queue non-empty, so a run
# lasts its whole duration and its transcript grows with it.
MAX_DURATION = 24 * 3600 * SECOND


class PartitionAt(NamedTuple):
    at: int
    cells: tuple[tuple[int, ...], ...]


class HealAt(NamedTuple):
    at: int


class JoinAt(NamedTuple):
    at: int
    node_id: int


class LeaveAt(NamedTuple):
    at: int
    node_id: int


class CrashAt(NamedTuple):
    at: int
    node_id: int


class InjectAt(NamedTuple):
    """Deliver raw bytes to one node as if they came off the network.

    Test hook for adversarial and replay scenarios; not part of the scenario
    file grammar.
    """

    at: int
    node_id: int
    wire: bytes


class SimConfig(NamedTuple):
    node_count: int
    loss_prob: float = 0.0
    latency_min: int = 10_000
    latency_max: int = 50_000
    seed: int = 0
    duration: int = 120 * SECOND
    schedule: tuple = ()
    initial_leader: int | None = None  # skip the election, per the IKA setup

    def validate(self) -> "SimConfig":
        if not 1 <= self.node_count <= MAX_ID:
            raise ConfigError(f"node_count must lie in [1, {MAX_ID}]")
        if self.initial_leader is not None and not \
                1 <= self.initial_leader <= self.node_count:
            raise ConfigError("initial_leader must be one of the starting nodes")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ConfigError("loss_prob must lie in [0, 1]")
        if not 0 < self.latency_min <= self.latency_max:
            raise ConfigError("latency bounds must satisfy 0 < min <= max")
        if not 0 < self.duration <= MAX_DURATION:
            raise ConfigError("duration must be positive and at most 86400s")
        self._validate_schedule()
        return self

    def _validate_schedule(self) -> None:
        """Replay the schedule in run order, (at, index), and reject entries
        that could only fail mid-run: an id the wire cannot carry, a join
        of an id that already exists, a leave or crash of an id that is not
        live, partition cells that overlap, and a cell naming an id that
        neither starts nor joins at any time in the run (a later joiner and
        a departed node may be named).  The starting ids are a range, never
        a set, so a large ``node_count`` costs no memory here."""
        joined: set[int] = set()
        departed: set[int] = set()
        ever_joins = {entry.node_id for entry in self.schedule
                      if isinstance(entry, JoinAt)}

        def known(node_id: int) -> bool:
            return 1 <= node_id <= self.node_count or node_id in joined

        order = sorted(range(len(self.schedule)),
                       key=lambda i: (self.schedule[i].at, i))
        for entry in (self.schedule[i] for i in order):
            for node_id in _ids_of(entry):
                if not 0 <= node_id <= MAX_ID:
                    raise ConfigError(
                        f"node id {node_id} outside [0, {MAX_ID}]")
            if isinstance(entry, JoinAt):
                if known(entry.node_id):
                    raise UnknownNode(f"node {entry.node_id} already exists")
                joined.add(entry.node_id)
            elif isinstance(entry, (LeaveAt, CrashAt)):
                if not known(entry.node_id) or entry.node_id in departed:
                    raise UnknownNode(f"node {entry.node_id} is not live")
                departed.add(entry.node_id)
            elif isinstance(entry, PartitionAt):
                seen: set[int] = set()
                for cell in entry.cells:
                    for node_id in cell:
                        if node_id in seen:
                            raise OverlapError(
                                f"node {node_id} in two partition cells")
                        if not (1 <= node_id <= self.node_count
                                or node_id in ever_joins):
                            raise UnknownNode(
                                f"partition names node {node_id},"
                                " which is never in the run")
                        seen.add(node_id)


def _ids_of(entry) -> tuple[int, ...]:
    """Every node id a schedule entry names."""
    if isinstance(entry, PartitionAt):
        return tuple(node_id for cell in entry.cells for node_id in cell)
    if isinstance(entry, HealAt):
        return ()
    return (entry.node_id,)


class Record(NamedTuple):
    """One transcript line: time, event kind, node, ordered detail fields
    holding values as given; :meth:`render` is the only formatter.  A
    named tuple, so a run's thousands of records each cost one
    ``tuple.__new__``."""

    time: int
    kind: str
    node: int | None
    fields: tuple[tuple[str, Any], ...] = ()

    def get(self, key: str) -> Any:
        for k, v in self.fields:
            if k == key:
                return v
        return None

    def render(self) -> str:
        node = "-" if self.node is None else self.node
        detail = " ".join([f"{k}={v.hex() if type(v) is bytes else v}"
                           for k, v in self.fields])
        return f"{self.time} {self.kind} {node} {detail}".rstrip()


class Transcript:
    def __init__(self) -> None:
        self.records: list[Record] = []

    def append(self, time: int, kind: str, node: int | None, *fields) -> None:
        self.records.append(Record(time, kind, node, fields))

    def of_kind(self, *kinds: str) -> list[Record]:
        wanted = set(kinds)
        return [r for r in self.records if r.kind in wanted]

    def render(self) -> str:
        """One line per record, each ended by a newline; an empty
        transcript is one empty line.  The lines are joined once, with an
        empty last item for the final newline, so the output is never
        copied."""
        lines = [r.render() for r in self.records] or [""]
        lines.append("")
        return "\n".join(lines)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


class Metrics:
    """Exponentiations, which no record carries, and a copy of each
    :class:`~agdh.node_fsm.SessionKey` that a KEY record describes.  The
    benchmark reads both lists; the auditor and the cost row read keys from
    the KEY records and only exponentiations from here, and message counts
    come from the transcript."""

    __slots__ = ("exp_events", "key_events")

    def __init__(self) -> None:
        self.exp_events: list = []  # (time, node, delta)
        self.key_events: list = []  # node_fsm.SessionKey


class SimResult:
    __slots__ = ("config", "node_config", "params", "transcript", "metrics",
                 "nodes", "live", "keyring", "wire_by_id")

    def __init__(self, config: SimConfig, node_config: NodeConfig,
                 params: GroupParams, transcript: Transcript, metrics: Metrics,
                 nodes: dict, live: set, keyring: HmacKeyRing,
                 wire_by_id: dict) -> None:
        self.config = config
        self.node_config = node_config
        self.params = params
        self.transcript = transcript
        self.metrics = metrics
        self.nodes = nodes  # every node that ran, with its own secret_log
        self.live = live
        self.keyring = keyring
        self.wire_by_id = wire_by_id  # msg_id -> bytes


class _Simulation:
    def __init__(self, config: SimConfig, node_config: NodeConfig,
                 params: GroupParams):
        self.config = config.validate()
        self.node_config = node_config.validate()
        self.params = params
        self.queue: list = []
        self.seq = 0
        self.msg_seq = 0
        self.transcript = Transcript()
        self.metrics = Metrics()
        self.channel_rng = random.Random(f"{config.seed}/channel")
        # the active partition's cell of each node it names; empty when
        # healed.  A node it does not name, a later joiner included, is in
        # cell -1 with every other unnamed node.
        self.partition: dict[int, int] = {}
        self.nodes: dict[int, Node] = {}
        self.live: set[int] = set()
        self.wire_by_id: dict[int, bytes] = {}
        self.exp_seen: dict[int, int] = {}  # node -> counter at last absorb

        initial = list(range(1, config.node_count + 1))
        scheduled_joins = [e.node_id for e in config.schedule
                           if isinstance(e, JoinAt)]
        self.keyring = HmacKeyRing.provision(
            initial + scheduled_joins, master=f"agdh/{config.seed}")
        for node_id in initial:
            self._create_node(node_id, now=0)
        for entry in config.schedule:
            self._push(entry.at, _SCHED, entry)

    # -- plumbing ---------------------------------------------------------

    def _push(self, at: int, tag: int, payload) -> None:
        self.seq += 1
        heapq.heappush(self.queue, (at, self.seq, tag, payload))

    def _create_node(self, node_id: int, now: int) -> None:
        node = Node(
            node_id, self.node_config, self.params, self.keyring,
            rng=random.Random(f"{self.config.seed}/node/{node_id}"),
        )
        self.nodes[node_id] = node
        self.live.add(node_id)
        if node_id == self.config.initial_leader and now == 0:
            self._absorb(node_id, node.start_as_leader(now), now)
        else:
            self._absorb(node_id, node.start(now), now)

    def _same_cell(self, a: int, b: int) -> bool:
        partition = self.partition
        return not partition or partition.get(a, -1) == partition.get(b, -1)

    # -- event processing ----------------------------------------------------

    def run(self) -> SimResult:
        duration = self.config.duration
        while self.queue and self.queue[0][0] <= duration:
            at, _, tag, payload = heapq.heappop(self.queue)
            if tag == _TIMER:
                node_id, kind = payload
                if node_id in self.live:
                    node = self.nodes[node_id]
                    self._absorb(node_id, node.handle(TimerFired(kind), at), at)
            elif tag == _DELIVER:
                msg_id, receiver, sender = payload
                self._deliver(msg_id, receiver, sender, at)
            else:
                self._schedule_entry(payload, at)
        return SimResult(
            config=self.config, node_config=self.node_config, params=self.params,
            transcript=self.transcript, metrics=self.metrics, nodes=self.nodes,
            live=set(self.live), keyring=self.keyring,
            wire_by_id=self.wire_by_id,
        )

    def _deliver(self, msg_id: int, receiver: int, sender: int | None, at: int) -> None:
        if receiver not in self.live:
            self.transcript.append(at, "SUPPRESS", receiver,
                                   ("id", msg_id), ("reason", "dead"))
            return
        self.transcript.append(at, "DELIVER", receiver,
                               ("id", msg_id), ("from", sender if sender is not None else "-"))
        node = self.nodes[receiver]
        wire = self.wire_by_id[msg_id]
        self._absorb(receiver, node.handle(MessageArrived(wire), at), at,
                     msg_id=msg_id)

    def _schedule_entry(self, entry, at: int) -> None:
        if isinstance(entry, PartitionAt):
            self.apply_partition(entry.cells, at)
        elif isinstance(entry, HealAt):
            self.heal(at)
        elif isinstance(entry, JoinAt):
            self.transcript.append(at, "JOIN", entry.node_id)
            self._create_node(entry.node_id, at)
        elif isinstance(entry, LeaveAt):
            node = self.nodes[entry.node_id]
            self._absorb(entry.node_id, node.handle(LocalLeaveRequest(), at), at)
            self.transcript.append(at, "LEAVE", entry.node_id)
            self.live.discard(entry.node_id)
        elif isinstance(entry, CrashAt):
            self.transcript.append(at, "CRASH", entry.node_id)
            self.live.discard(entry.node_id)
        elif isinstance(entry, InjectAt):
            self.msg_seq += 1
            self.wire_by_id[self.msg_seq] = entry.wire
            self.transcript.append(at, "INJECT", entry.node_id,
                                   ("id", self.msg_seq))
            self._push(at, _DELIVER, (self.msg_seq, entry.node_id, None))
        else:
            raise ConfigError(f"unknown schedule entry {entry!r}")

    def apply_partition(self, cells, at: int) -> None:
        if not cells:
            return  # no-op
        self.partition = {node_id: index
                          for index, cell in enumerate(cells, start=1)
                          for node_id in cell}
        rendered = "|".join(",".join(str(n) for n in sorted(cell)) for cell in cells)
        self.transcript.append(at, "PARTITION", None, ("cells", rendered))

    def heal(self, at: int) -> None:
        self.partition = {}
        self.transcript.append(at, "HEAL", None)

    # -- FSM output absorption --------------------------------------------------

    def _absorb(self, node_id: int, out, at: int, msg_id: int | None = None) -> None:
        node = self.nodes[node_id]
        if msg_id is not None and out.accepted is not None:
            if out.accepted:
                self.transcript.append(at, "ACCEPT", node_id, ("id", msg_id))
            else:
                reason = next((entry[1] for entry in out.log
                               if entry[0] == "reject"), "unspecified")
                self.transcript.append(at, "REJECT", node_id,
                                       ("id", msg_id), ("reason", reason))
        for entry in out.log:
            tag = entry[0]
            if tag == "reject":
                continue
            if tag == "mode":
                self.transcript.append(
                    at, "STATE", node_id,
                    ("mode", entry[1]), ("why", entry[2]))
            else:
                fields = tuple((f"a{i}", v) for i, v in enumerate(entry[1:]))
                self.transcript.append(at, tag.upper(), node_id, *fields)
        for key in out.key_changes:
            self.transcript.append(
                key.time, "KEY", key.node_id,
                ("leader", key.leader_id), ("epoch", key.epoch),
                ("key", key.derived))
            self.metrics.key_events.append(key)
        for outgoing in out.sends:
            self._send(node_id, outgoing, at)
        for kind, deadline in out.timers:
            self._push(deadline, _TIMER, (node_id, kind))
        # exponentiation accounting rides on the counter the node owns
        done = node.counter.count
        seen = self.exp_seen.get(node_id, 0)
        if done != seen:
            self.metrics.exp_events.append((at, node_id, done - seen))
            self.exp_seen[node_id] = done

    def _send(self, sender: int, outgoing: Outgoing, at: int) -> None:
        self.msg_seq += 1
        msg_id = self.msg_seq
        self.wire_by_id[msg_id] = outgoing.wire
        msg = outgoing.message
        dest = "bcast" if outgoing.dest is None else outgoing.dest
        self.transcript.append(
            at, "SEND", sender,
            ("id", msg_id), ("kind", msg.kind.name), ("dest", dest),
            ("epoch", msg.epoch), ("entries", len(msg.entries)),
            ("wire", outgoing.wire))
        if outgoing.dest is None:
            targets = [n for n in sorted(self.live) if n != sender]
        else:
            targets = [outgoing.dest] if outgoing.dest in self.live else []
            if not targets:
                self.transcript.append(at, "SUPPRESS", outgoing.dest,
                                       ("id", msg_id), ("reason", "dead"))
        config = self.config
        loss_prob, latency_min = config.loss_prob, config.latency_min
        latency_end = config.latency_max + 1
        for receiver in targets:
            if not self._same_cell(sender, receiver):
                self.transcript.append(at, "SUPPRESS", receiver,
                                       ("id", msg_id), ("reason", "partition"))
                continue
            if self.channel_rng.random() < loss_prob:
                self.transcript.append(at, "DROP", receiver, ("id", msg_id))
                continue
            latency = self.channel_rng.randrange(latency_min, latency_end)
            self._push(at + latency, _DELIVER, (msg_id, receiver, sender))


def run(config: SimConfig, node_config: NodeConfig | None = None,
        params: GroupParams = PROD) -> SimResult:
    """Execute one simulation; identical inputs give identical outputs."""
    return _Simulation(config, node_config or NodeConfig(), params).run()


# -- post-run helpers ------------------------------------------------------------


def leaders(result: SimResult) -> list[int]:
    return sorted(n for n in result.live
                  if result.nodes[n].mode is Mode.LEADER)


def converged(result: SimResult) -> bool:
    """Exactly one live leader, and every other live node holds its current
    session key (a partitioned run whose cells each keep a leader has not
    converged)."""
    heads = leaders(result)
    if len(heads) != 1:
        return False
    leader = result.nodes[heads[0]]
    peers = [result.nodes[n] for n in result.live if n != heads[0]]
    if leader.session is None:
        return not peers
    for node in peers:
        if node.session is None or node.session.derived != leader.session.derived:
            return False
    return True


def converged_by(result: SimResult) -> int | None:
    """Earliest time at which exactly one node led and every live node held
    the leader's current key, reconstructed by replaying the transcript.

    Returns None if that state is never reached.  Later churn (and its
    recovery window) does not retract an earlier convergence.  A node that
    takes the lead starts an empty group with no session, so its STATE
    record clears its replayed key: an election is not convergence, even
    when the new leader still holds the key of the leader it replaces.
    """
    live: set[int] = set(range(1, result.config.node_count + 1))
    mode: dict[int, str] = {n: "member" for n in live}
    key: dict[int, bytes | None] = {n: None for n in live}
    for rec in result.transcript:
        if rec.kind == "STATE":
            mode[rec.node] = rec.get("mode")
            if mode[rec.node] == "leader":
                key[rec.node] = None
        elif rec.kind == "KEY":
            key[rec.node] = rec.get("key")
        elif rec.kind == "DISSOLVE":
            key[rec.node] = None
        elif rec.kind == "JOIN":
            live.add(rec.node)
            mode[rec.node] = "member"
            key[rec.node] = None
        elif rec.kind in ("CRASH", "LEAVE"):
            live.discard(rec.node)
        else:
            continue
        heads = [n for n in live if mode.get(n) == "leader"]
        if len(heads) != 1 or key.get(heads[0]) is None:
            continue
        wanted = key[heads[0]]
        if all(key.get(n) == wanted for n in live):
            return rec.time
    return None
