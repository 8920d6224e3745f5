"""Deterministic discrete-event network simulator.

Single-hop lossy broadcast with uniform latency, partitions, and node churn,
driving one :class:`~agdh.node_fsm.Node` per participant.  Everything is
derived from the run seed: per-node protocol randomness, channel loss, and
latency draws.  Events are processed in (time, insertion-sequence) order, so
identical inputs produce byte-identical transcripts.

The transcript is the run's complete observable history: every send,
delivery, drop, state transition, and key change, one line per event;
message counts and convergence are read from it.  A :class:`Record` is
``(time, kind, node, names, values)``: ``names`` is one tuple per record
shape, shared by every record of that shape, and ``values`` holds each
field's value as given; only :meth:`Record.render` formats it (``bytes``
as hex).  A SEND record's ``wire`` is the very object in
``SimResult.wire_by_id``, so each wire is held once.
The records render in chunks of ``_RENDER_CHUNK`` lines.
:meth:`Transcript.render` appends each chunk, as it is rendered, to one
string that grows in place, so beside that string it holds only one chunk
and that chunk's lines; ``agdh run --out`` writes the same chunks one at
a time.
"""

from __future__ import annotations

import functools
import heapq
import random
from typing import Any, Iterator, NamedTuple

from .errors import ConfigError, OverlapError, UnknownNode
from .group_arith import GroupParams, PROD
from .node_fsm import (
    LocalLeaveRequest,
    MessageArrived,
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

# Each delivery's latency is drawn uniformly from [LATENCY_MIN, LATENCY_MAX]
# microseconds.
LATENCY_MIN = 10_000
LATENCY_MAX = 50_000


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


_ENTRY_TYPES = (PartitionAt, HealAt, JoinAt, LeaveAt, CrashAt, InjectAt)


class SimConfig(NamedTuple):
    node_count: int
    loss_prob: float = 0.0
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
        if not 0 < self.duration <= MAX_DURATION:
            raise ConfigError("duration must be positive and at most 86400s")
        self._validate_schedule()
        return self

    def _validate_schedule(self) -> None:
        """Replay the schedule in run order, (at, index), and reject entries
        that could only fail mid-run: an entry of none of the six entry
        types, an id the wire cannot carry, a join of an id that already
        exists, a leave or crash of an id that is not live, partition cells
        that overlap, and a cell naming an id that neither starts nor joins
        at any time in the run (a later joiner and a departed node may be
        named).  The starting ids are a range, never a set, so a large
        ``node_count`` costs no memory here."""
        for entry in self.schedule:
            if not isinstance(entry, _ENTRY_TYPES):
                raise ConfigError(f"unknown schedule entry {entry!r}")
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
    """One transcript line: time, event kind, node, and the detail fields
    as two parallel tuples.  ``names`` is shared by every record of one
    shape (the writers pass module-level tuples), and ``values`` holds the
    values as given; :meth:`render` is the only formatter.  A DELIVER costs
    one record tuple and one two-item ``values`` tuple, not a tuple per
    field."""

    time: int
    kind: str
    node: int | None
    names: tuple[str, ...] = ()
    values: tuple = ()

    def get(self, key: str) -> Any:
        """The value of the first field named ``key``, or None if none is."""
        try:
            return self.values[self.names.index(key)]
        except ValueError:
            return None

    def render(self) -> str:
        node = "-" if self.node is None else self.node
        detail = " ".join([f"{k}={v.hex() if type(v) is bytes else v}"
                           for k, v in zip(self.names, self.values)])
        return f"{self.time} {self.kind} {node} {detail}".rstrip()


# Records rendered per chunk: what render holds beside the text it grows.
_RENDER_CHUNK = 256

# The field names of each record shape simnet writes, one tuple per shape.
_ID_NAMES = ("id",)
_ID_FROM_NAMES = ("id", "from")
_ID_REASON_NAMES = ("id", "reason")
_CELLS_NAMES = ("cells",)
_STATE_NAMES = ("mode", "why")
_KEY_NAMES = ("leader", "epoch", "key")
_SEND_NAMES = ("id", "kind", "dest", "epoch", "entries", "wire")


@functools.cache
def _arg_names(arity: int) -> tuple[str, ...]:
    """``("a0", ..., "a<arity-1>")``, one tuple per arity, for the records
    copied from a node's log."""
    return tuple(f"a{i}" for i in range(arity))


class Transcript:
    def __init__(self) -> None:
        self.records: list[Record] = []

    def append(self, time: int, kind: str, node: int | None,
               names: tuple[str, ...], *values) -> None:
        """Add one record; ``names`` should be a tuple shared by every
        record of its shape, so that each record holds only its values."""
        self.records.append(Record(time, kind, node, names, values))

    def of_kind(self, *kinds: str) -> list[Record]:
        wanted = set(kinds)
        return [r for r in self.records if r.kind in wanted]

    def render_chunks(self) -> Iterator[str]:
        """The rendered text in pieces of at most ``_RENDER_CHUNK`` lines,
        each line ended by a newline; an empty transcript is one empty
        line.  Only one chunk and its lines are held at a time."""
        records = self.records
        for start in range(0, len(records) or 1, _RENDER_CHUNK):
            lines = [r.render()
                     for r in records[start:start + _RENDER_CHUNK]] or [""]
            lines.append("")
            yield "\n".join(lines)

    def render(self) -> str:
        """The chunks of :meth:`render_chunks`, appended one by one to a
        string that only this frame holds.  CPython grows such a string in
        place, so beside the text the peak is one chunk and its lines;
        ``"".join`` of the chunks would hold the text twice."""
        text = ""
        for chunk in self.render_chunks():
            text += chunk
        return text

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


class SimResult(NamedTuple):
    config: SimConfig
    params: GroupParams
    transcript: Transcript
    metrics: Metrics
    nodes: dict  # every node that ran, with its own secret_log
    keyring: HmacKeyRing
    wire_by_id: dict  # msg_id -> bytes


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
        return SimResult(self.config, self.params, self.transcript,
                         self.metrics, self.nodes, self.keyring,
                         self.wire_by_id)

    def _deliver(self, msg_id: int, receiver: int, sender: int | None, at: int) -> None:
        if receiver not in self.live:
            self.transcript.append(at, "SUPPRESS", receiver,
                                   _ID_REASON_NAMES, msg_id, "dead")
            return
        self.transcript.append(at, "DELIVER", receiver, _ID_FROM_NAMES,
                               msg_id, "-" if sender is None else sender)
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
            self.transcript.append(at, "JOIN", entry.node_id, ())
            self._create_node(entry.node_id, at)
        elif isinstance(entry, LeaveAt):
            node = self.nodes[entry.node_id]
            self._absorb(entry.node_id, node.handle(LocalLeaveRequest(), at), at)
            self.transcript.append(at, "LEAVE", entry.node_id, ())
            self.live.discard(entry.node_id)
        elif isinstance(entry, CrashAt):
            self.transcript.append(at, "CRASH", entry.node_id, ())
            self.live.discard(entry.node_id)
        else:  # InjectAt, the last type validate admits
            self.msg_seq += 1
            self.wire_by_id[self.msg_seq] = entry.wire
            self.transcript.append(at, "INJECT", entry.node_id, _ID_NAMES,
                                   self.msg_seq)
            self._push(at, _DELIVER, (self.msg_seq, entry.node_id, None))

    def apply_partition(self, cells, at: int) -> None:
        if not cells:
            return  # no-op
        self.partition = {node_id: index
                          for index, cell in enumerate(cells, start=1)
                          for node_id in cell}
        rendered = "|".join(",".join(str(n) for n in sorted(cell)) for cell in cells)
        self.transcript.append(at, "PARTITION", None, _CELLS_NAMES, rendered)

    def heal(self, at: int) -> None:
        self.partition = {}
        self.transcript.append(at, "HEAL", None, ())

    # -- FSM output absorption --------------------------------------------------

    def _absorb(self, node_id: int, out, at: int, msg_id: int | None = None) -> None:
        node = self.nodes[node_id]
        if msg_id is not None and out.accepted is not None:
            if out.accepted:
                self.transcript.append(at, "ACCEPT", node_id, _ID_NAMES,
                                       msg_id)
            else:
                reason = next((entry[1] for entry in out.log
                               if entry[0] == "reject"), "unspecified")
                self.transcript.append(at, "REJECT", node_id,
                                       _ID_REASON_NAMES, msg_id, reason)
        for entry in out.log:
            tag = entry[0]
            if tag == "reject":
                continue
            if tag == "mode":
                self.transcript.append(at, "STATE", node_id, _STATE_NAMES,
                                       entry[1], entry[2])
            else:
                self.transcript.append(at, tag.upper(), node_id,
                                       _arg_names(len(entry) - 1), *entry[1:])
        for key in out.key_changes:
            self.transcript.append(key.time, "KEY", key.node_id, _KEY_NAMES,
                                   key.leader_id, key.epoch, key.derived)
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
        self.transcript.append(at, "SEND", sender, _SEND_NAMES, msg_id,
                               msg.kind.name, dest, msg.epoch,
                               len(msg.entries), outgoing.wire)
        if outgoing.dest is None:
            targets = [n for n in sorted(self.live) if n != sender]
        else:
            targets = [outgoing.dest] if outgoing.dest in self.live else []
            if not targets:
                self.transcript.append(at, "SUPPRESS", outgoing.dest,
                                       _ID_REASON_NAMES, msg_id, "dead")
        loss_prob = self.config.loss_prob
        latency_low, latency_end = LATENCY_MIN, LATENCY_MAX + 1
        for receiver in targets:
            if not self._same_cell(sender, receiver):
                self.transcript.append(at, "SUPPRESS", receiver,
                                       _ID_REASON_NAMES, msg_id, "partition")
                continue
            if self.channel_rng.random() < loss_prob:
                self.transcript.append(at, "DROP", receiver, _ID_NAMES, msg_id)
                continue
            latency = self.channel_rng.randrange(latency_low, latency_end)
            self._push(at + latency, _DELIVER, (msg_id, receiver, sender))


def run(config: SimConfig, node_config: NodeConfig | None = None,
        params: GroupParams = PROD) -> SimResult:
    """Execute one simulation; identical inputs give identical outputs."""
    return _Simulation(config, node_config or NodeConfig(), params).run()


# -- post-run helpers ------------------------------------------------------------


class Replay(NamedTuple):
    """The first time a run converged (None if never) and, at its end, the
    live ids, their leaders, the KEY record each holds (None if keyless),
    and whether the run is converged then."""

    converged_at: int | None
    live: list[int]
    leaders: list[int]
    keys: dict[int, Record | None]
    converged: bool


def replay(result: SimResult) -> Replay:
    """One pass over ``result.transcript`` in record order, which with
    ``result.config.node_count`` is all it reads.  JOIN, LEAVE and CRASH
    keep the live set, STATE each node's mode, and KEY the key it holds,
    which DISSOLVE clears, as does a STATE to ``leader``: a new leader
    starts an empty group, so an election is not convergence.  A run is
    converged when exactly one live node leads and every other live node
    holds its key; a leader alone needs none.  Later churn does not retract
    an earlier convergence."""
    live = set(range(1, result.config.node_count + 1))
    mode: dict[int, str] = {}
    held: dict[int, Record] = {}

    def agreed() -> bool:
        heads = [n for n in live if mode.get(n) == "leader"]
        if len(heads) != 1 or len(live) == 1:
            return len(heads) == 1
        keys = {held[n].get("key") if n in held else None for n in live}
        return len(keys) == 1 and None not in keys

    first = None
    for rec in result.transcript:
        kind = rec.kind
        if kind == "KEY":
            held[rec.node] = rec
        elif kind == "STATE":
            mode[rec.node] = rec.get("mode")
            if mode[rec.node] == "leader":
                held.pop(rec.node, None)
        elif kind == "DISSOLVE":
            held.pop(rec.node, None)
        elif kind == "JOIN":
            live.add(rec.node)
        elif kind in ("CRASH", "LEAVE"):
            live.discard(rec.node)
        else:
            continue
        if first is None and agreed():
            first = rec.time
    ids = sorted(live)
    return Replay(first, ids, [n for n in ids if mode.get(n) == "leader"],
                  {n: held.get(n) for n in ids}, agreed())


def converged_by(result: SimResult) -> int | None:
    """Earliest time at which the run converged, or None if it never did.
    It stays only because the benchmark, ``perfbench/sample.py``, calls it;
    once the benchmark reads :func:`replay`, it goes."""
    return replay(result).converged_at
