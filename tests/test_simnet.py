import contextlib
import hashlib
import itertools
import os
import random
import tracemalloc
from collections import Counter, defaultdict
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agdh.cli import _metrics_text
from agdh.errors import ConfigError, OverlapError, UnknownNode
from agdh.group_arith import PROD, TOY
from agdh.messages import MessageKind
from agdh.node_fsm import Mode, Node, NodeConfig
from agdh.oracle import audit_transcript
from agdh.scenario import load_scenario
from agdh.simnet import (
    MAX_DURATION,
    SECOND,
    CrashAt,
    HealAt,
    JoinAt,
    LeaveAt,
    PartitionAt,
    Record,
    SimConfig,
    Transcript,
    _RENDER_CHUNK,
    converged_by,
    replay,
    run,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def toy_run(**kwargs):
    node_config = kwargs.pop("node_config", NodeConfig())
    return run(SimConfig(**kwargs), node_config, TOY)


def outcomes_by_id(res) -> dict[int, list]:
    """The DELIVER, DROP and SUPPRESS records of each message id, in order."""
    outcomes = defaultdict(list)
    for rec in res.transcript.of_kind("DELIVER", "DROP", "SUPPRESS"):
        outcomes[rec.get("id")].append(rec)
    return outcomes


class TestBasics:
    def test_single_node_elects_itself_and_beacons(self):
        res = toy_run(node_count=1, seed=1, duration=60 * SECOND)
        assert replay(res).leaders == [1]
        node = res.nodes[1]
        assert node.session is None  # nobody to share a key with
        beacons = [r for r in res.transcript.of_kind("SEND")
                   if r.get("kind") == "IGROUP"]
        assert len(beacons) >= 5
        assert all(r.get("entries") == 0 for r in beacons)
        # election happened after the silence threshold plus one backoff slot
        config = NodeConfig()
        first = beacons[0].time
        assert config.silence_threshold + config.slot_trtd <= first
        assert first <= config.silence_threshold + \
            config.backoff_window * config.slot_trtd

    def test_two_nodes_share_key_two_expos_each(self):
        res = toy_run(node_count=2, seed=42, duration=60 * SECOND)
        assert replay(res).converged
        a, b = res.nodes[1], res.nodes[2]
        assert a.session.derived == b.session.derived
        member = next(n for n in (a, b) if n.mode is Mode.MEMBER)
        assert member.counter.count == 2

    def test_determinism_bit_identical_transcripts(self):
        first = toy_run(node_count=5, seed=9, loss_prob=0.2, duration=45 * SECOND)
        second = toy_run(node_count=5, seed=9, loss_prob=0.2, duration=45 * SECOND)
        assert first.transcript.render() == second.transcript.render()

    def test_different_seeds_differ(self):
        first = toy_run(node_count=5, seed=1, duration=30 * SECOND)
        second = toy_run(node_count=5, seed=2, duration=30 * SECOND)
        assert first.transcript.render() != second.transcript.render()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(node_count=0).validate()
        with pytest.raises(ConfigError):
            SimConfig(node_count=2, loss_prob=1.5).validate()
        with pytest.raises(ConfigError):
            SimConfig(node_count=2, duration=MAX_DURATION + 1).validate()
        assert SimConfig(node_count=2, duration=MAX_DURATION).validate()

    @pytest.mark.parametrize("entry", [
        NamedTuple("WakeAt", [("at", int), ("node_id", int)])(5, 1),
        "10s join 3",
    ], ids=["named_tuple", "string"])
    def test_unknown_schedule_entry_is_refused(self, entry):
        """Only the six entry types pass: an entry of another type is
        refused before the run starts, never in the middle of it."""
        with pytest.raises(ConfigError, match="unknown schedule entry"):
            SimConfig(node_count=2, schedule=(entry,)).validate()

    @pytest.mark.parametrize("entry", [
        LeaveAt(-1, 1),
        JoinAt(5.5, 3),
        JoinAt(10 * SECOND + 1, 3),
        HealAt(True),
        PartitionAt("5", ((1,), (2,))),
    ], ids=["negative", "fractional", "after_duration", "bool", "string"])
    def test_schedule_time_outside_the_run_is_refused(self, entry):
        """A time that is not a whole number of microseconds in [0,
        duration] is refused before the run: a negative one would write a
        record before the time-0 ones, a fractional one a record between
        microseconds, and one past the end would be silently dropped."""
        config = SimConfig(node_count=2, duration=10 * SECOND, schedule=(entry,))
        with pytest.raises(ConfigError, match="time must be a whole number"):
            config.validate()

    def test_schedule_entry_at_the_duration_runs(self):
        result = run(SimConfig(node_count=2, duration=10 * SECOND,
                               schedule=(JoinAt(10 * SECOND, 3),)), None, TOY)
        assert "10000000 JOIN 3" in result.transcript.render()


def prod_churn_run():
    """A short lossy PROD run with a join, a graceful leave, a crash and a
    partition that heals: every record kind the schedule can produce, and
    128-byte elements in the rendered wires."""
    schedule = (JoinAt(15 * SECOND, 6), LeaveAt(30 * SECOND, 2),
                CrashAt(45 * SECOND, 3),
                PartitionAt(55 * SECOND, ((1, 4), (5, 6))), HealAt(70 * SECOND))
    return run(SimConfig(node_count=5, seed=11, loss_prob=0.1,
                         duration=90 * SECOND, schedule=schedule),
               NodeConfig(), PROD)


# sha256 of prod_churn_run's rendered transcript and of its metrics.txt
PROD_CHURN_DIGESTS = (
    "51a1c737a10d41aa8bed3c304237dd3f0a2e72db65ef5fd0cf16d197b0866531",
    "67c49d61f3cc9832d71dc03d3de68b9bf9a48a0a5ea1379ab80c2d593056b42d",
)


def prod_churn_digests(res) -> tuple[str, str]:
    return tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in (res.transcript.render(), _metrics_text(res)))


class TestRecords:
    def test_prod_churn_render_is_pinned(self):
        res = prod_churn_run()
        kinds = {r.kind for r in res.transcript}
        assert {"JOIN", "LEAVE", "CRASH", "PARTITION", "HEAL", "DROP",
                "SUPPRESS", "REJECT", "EXPIRE", "KEY"} <= kinds
        assert prod_churn_digests(res) == PROD_CHURN_DIGESTS

    def test_toy_churn_render_is_pinned(self, monkeypatch):
        """A lossy TOY churn run with short renewals that reaches the
        leader transitions the goldens barely touch: a degenerate-key
        exclusion and its blocklist, demotions and leader switches, join
        and renewal rekeys, a wrong echo and a re-minted contribution.
        After every step, a node holds its leader role exactly while it
        leads."""
        real_handle, steps = Node.handle, Counter()

        def checked_handle(node, event, now):
            out = real_handle(node, event, now)
            assert (node.mode is Mode.LEADER) == (node.lead is not None)
            steps[node.mode] += 1
            return out

        monkeypatch.setattr(Node, "handle", checked_handle)
        schedule = load_scenario(os.path.join(SCENARIO_DIR, "churn.scn"))
        res = run(SimConfig(node_count=10, loss_prob=0.3, seed=6,
                            duration=300 * SECOND, schedule=schedule),
                  NodeConfig(renew_p=60 * SECOND), TOY)
        assert steps[Mode.LEADER] and steps[Mode.MEMBER]
        kinds = {r.kind for r in res.transcript}
        assert {"DEGENERATE_EXCLUDED", "BLOCKED_CONTRIBUTION", "SWITCH_LEADER",
                "RENEWAL", "CONTRIBUTION_REMINTED"} <= kinds
        assert any(r.get("why").startswith("demoted_to_")
                   for r in res.transcript.of_kind("STATE"))
        assert {"join", "renewal"} <= {r.get("a0")
                                       for r in res.transcript.of_kind("REKEY")}
        assert "wrong_echo" in {r.get("reason")
                                for r in res.transcript.of_kind("REJECT")}
        digest = hashlib.sha256(res.transcript.render().encode()).hexdigest()
        assert digest == \
            "604c616d871c5a110eb4065b6128b79d0113c6f44a8683b16675547567853d50"
        digest = hashlib.sha256(_metrics_text(res).encode()).hexdigest()
        assert digest == \
            "e99007c1b67ea6335aead8cf422b6f6ce35253df7fc09a191d183b7c7581b16f"

    def test_records_hold_values_and_each_wire_once(self):
        res = prod_churn_run()
        sends = res.transcript.of_kind("SEND")
        assert sends
        for rec in sends:
            assert rec.get("wire") is res.wire_by_id[rec.get("id")]
            assert type(rec.get("entries")) is int
        keys = res.transcript.of_kind("KEY")
        assert len(keys) == len(res.metrics.key_events)
        for rec, key in zip(keys, res.metrics.key_events):
            assert type(rec.get("key")) is bytes
            assert rec.get("key") is key.derived
            assert (rec.time, rec.node, rec.get("leader"), rec.get("epoch")) \
                == (key.time, key.node_id, key.leader_id, key.epoch)


def reference_record_render(rec: Record) -> str:
    """The record formatter as it was before its list comprehension and
    ``type(v) is bytes`` test, kept as a reference."""
    node = "-" if rec.node is None else rec.node
    detail = " ".join(f"{k}={v.hex() if isinstance(v, bytes) else v}"
                      for k, v in zip(rec.names, rec.values))
    return f"{rec.time} {rec.kind} {node} {detail}".rstrip()


def record_of(time, kind, node, fields) -> Record:
    """A record of the ``(name, value)`` pairs ``fields``."""
    return Record(time, kind, node, tuple(k for k, _ in fields),
                  tuple(v for _, v in fields))


field_values = st.one_of(
    st.integers(-2**70, 2**70),
    st.text(max_size=8),
    st.text(max_size=4).map(lambda text: text + "  "),
    st.binary(max_size=12),
    st.tuples(st.integers(0, 9), st.text(max_size=3)),
)
records = st.builds(
    record_of,
    time=st.integers(0, 10**12),
    kind=st.sampled_from(["SEND", "KEY", "STATE", "HEAL"]),
    node=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    fields=st.lists(st.tuples(st.sampled_from(["id", "wire", "a0", "why"]),
                              field_values), max_size=6).map(tuple),
)


@settings(deadline=None)
@given(st.lists(records, max_size=8))
def test_render_is_one_line_per_record(recs):
    """Each record renders as before, and the transcript is its records'
    lines, each ended by a newline."""
    transcript = Transcript()
    for rec in recs:
        transcript.append(rec.time, rec.kind, rec.node, rec.names,
                          *rec.values)
        assert rec.render() == reference_record_render(rec)
    assert transcript.render() == \
        "\n".join(r.render() for r in recs) + "\n"


def test_empty_transcript_renders_one_newline():
    assert Transcript().render() == "\n"
    assert list(Transcript().render_chunks()) == ["\n"]


@pytest.mark.parametrize("count", [
    _RENDER_CHUNK - 1, _RENDER_CHUNK, _RENDER_CHUNK + 1, 2 * _RENDER_CHUNK + 5])
def test_render_joins_chunks_of_lines(count):
    """A transcript of several chunks renders as one line per record, and
    each chunk holds at most ``_RENDER_CHUNK`` whole lines.  A value that
    reads like a format field, such as ``{c0}``, renders as it is."""
    transcript = Transcript()
    for i in range(count):
        transcript.append(i, "SEND", i % 7 or None, ("id", "wire"), i,
                          f"{{c{i}}}" if i % 2 == 0 else bytes([i % 256]))
    chunks = list(transcript.render_chunks())
    assert len(chunks) == -(-count // _RENDER_CHUNK)
    assert [chunk.count("\n") for chunk in chunks[:-1]] == \
        [_RENDER_CHUNK] * (len(chunks) - 1)
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert transcript.render() == "".join(chunks) == \
        "".join(f"{reference_record_render(r)}\n" for r in transcript)


def test_get_reads_the_first_field_of_a_name():
    rec = Record(5, "X", 1, ("a", "b", "a"), (1, None, 3))
    assert (rec.get("a"), rec.get("b"), rec.get("c")) == (1, None, None)
    assert Record(5, "HEAL", None).get("a") is None
    assert rec.render() == "5 X 1 a=1 b=None a=3"


@contextlib.contextmanager
def traced():
    """Trace allocations for the block, unless they already are."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        yield
    finally:
        if not tracing:
            tracemalloc.stop()


class TestRecordMemory:
    """What a transcript retains per record.  Each record shape has one
    tuple of field names, shared by every record of it, so a record is its
    own tuple and one tuple of values."""

    @pytest.fixture(scope="class")
    def churn(self):
        schedule = load_scenario(os.path.join(SCENARIO_DIR, "churn.scn"))
        return toy_run(node_count=10, seed=1, loss_prob=0.1,
                       duration=120 * SECOND, schedule=schedule)

    def test_each_shape_has_one_names_tuple(self, churn):
        recs = list(churn.transcript)
        assert {r.kind for r in recs} >= {"SEND", "DELIVER", "KEY", "STATE",
                                          "REGISTER", "JOIN", "LEAVE"}
        assert len({id(r.names) for r in recs}) == len({r.names for r in recs})

    # Bytes retained per appended record, traced by tracemalloc, with about
    # 10% over the sizes measured on CPython 3.11 (153 and 185): the record
    # tuple (88 B with the tuple subclass's spare slot), its values tuple
    # and the list slot.  A (name, value) tuple per field would cost 257
    # and 513.
    @pytest.mark.parametrize("kind, bound", [("DELIVER", 168), ("SEND", 204)])
    def test_bytes_per_record(self, churn, kind, bound):
        rec = churn.transcript.of_kind(kind)[0]
        transcript = Transcript()

        def fill(count):
            for _ in range(count):
                transcript.append(rec.time, rec.kind, rec.node, rec.names,
                                  *rec.values)

        count = 20_000
        with traced():
            fill(5_000)  # empties the interpreter's tuple free lists
            before = tracemalloc.get_traced_memory()[0]
            fill(count)
            retained = tracemalloc.get_traced_memory()[0] - before
        assert list(transcript)[-1] == rec
        assert retained / count <= bound

    # A 27 KB wire is the size of form_n100's m = 99 IGROUP; one such SEND
    # in 64 records gives 32 lines of 54 KB of hex among small ones.
    @pytest.mark.parametrize("count, wide_every", [(65_536, 0), (2_048, 64)])
    def test_render_holds_one_chunk_of_lines(self, count, wide_every):
        """Beside the text it returns, render holds one chunk, as its lines
        and then joined, and one line's formatting: its traced peak stays
        under the text plus three times the largest chunk and 200 B per
        line of one chunk.  The bound relies on CPython appending in place
        to a string that only the appending frame holds; without that
        optimisation each append copies the text, and the peak is twice
        the text, as it is for a join of the chunks.  On CPython 3.11 it
        reads 1.03x the text for 65,536 small lines (1.42 MB of text),
        where joining 4,096-line chunks read 2.0x, and 1.30x for the wide
        lines (1.81 MB of text, 0.23 MB in the largest chunk)."""
        wide = bytes(range(256)) * 108
        transcript = Transcript()
        for i in range(count):
            if wide_every and i % wide_every == 0:
                transcript.append(i, "SEND", 3, ("id", "wire"), i, wide)
            else:
                transcript.append(i, "DROP", 3, ("id",), i)
        largest = max(map(len, transcript.render_chunks()))
        with traced():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            text = transcript.render()
            peak = tracemalloc.get_traced_memory()[1] - before
        assert text.count("\n") == len(transcript)
        assert peak <= len(text) + 3 * largest + 200 * _RENDER_CHUNK


class TestChannel:
    def test_lossless_broadcast_reaches_all(self):
        res = toy_run(node_count=5, seed=3, duration=30 * SECOND)
        sends = res.transcript.of_kind("SEND")
        bcast = next(r for r in sends if r.get("dest") == "bcast")
        records = outcomes_by_id(res)[bcast.get("id")]
        kinds = Counter(r.kind for r in records)
        assert kinds["DELIVER"] == 4
        assert kinds["DROP"] == 0
        assert sorted(r.node for r in records) == \
            sorted(n for n in res.nodes if n != bcast.node)

    def test_full_loss_drops_everything(self):
        res = toy_run(node_count=5, seed=3, loss_prob=1.0, duration=30 * SECOND)
        assert not res.transcript.of_kind("DELIVER")
        assert res.transcript.of_kind("DROP")
        # every node ends up leading its own silent group
        assert len(replay(res).leaders) == 5

    def test_conservation_per_message(self):
        res = toy_run(node_count=8, seed=5, loss_prob=0.4, duration=60 * SECOND)
        sends = {r.get("id"): r for r in res.transcript.of_kind("SEND")}
        outcomes = outcomes_by_id(res)
        assert set(outcomes) <= set(sends)
        for msg_id, rec in sends.items():
            records = outcomes.get(msg_id, [])
            # one outcome per receiver: dropped or suppressed when sent, or
            # scheduled, and then delivered or suppressed as dead on arrival
            receivers = [r.node for r in records]
            assert len(receivers) == len(set(receivers))
            if rec.get("dest") == "bcast":
                assert 0 <= len(records) <= 7
            else:
                assert len(records) <= 1
            # a delivery was scheduled: it lands a positive latency later
            assert all(r.time > rec.time for r in records if r.kind == "DELIVER")

    def test_latency_bounds(self):
        res = toy_run(node_count=3, seed=4, duration=30 * SECOND)
        sends = {r.get("id"): r.time for r in res.transcript.of_kind("SEND")}
        for rec in res.transcript.of_kind("DELIVER"):
            delay = rec.time - sends[rec.get("id")]
            assert 10_000 <= delay <= 50_000


class TestPartitions:
    def test_partition_suppresses_not_drops(self):
        res = toy_run(node_count=4, seed=6, duration=60 * SECOND,
                      schedule=(PartitionAt(30 * SECOND, ((1, 2), (3, 4))),))
        suppressed = [r for r in res.transcript.of_kind("SUPPRESS")
                      if r.get("reason") == "partition"]
        assert suppressed
        assert all(r.time >= 30 * SECOND for r in suppressed)

    def test_orphan_side_elects_min_id(self):
        # nodes 1..5; either side of the split elects its own minimum
        res = toy_run(node_count=5, seed=8, duration=120 * SECOND,
                      schedule=(PartitionAt(40 * SECOND, ((1, 2, 3), (4, 5))),))
        modes = {n: res.nodes[n].mode for n in replay(res).live}
        side_a = [n for n in (1, 2, 3) if modes[n] is Mode.LEADER]
        side_b = [n for n in (4, 5) if modes[n] is Mode.LEADER]
        assert len(side_a) == 1 and len(side_b) == 1
        # each side shares a key internally
        for side, head in (((1, 2, 3), side_a[0]), ((4, 5), side_b[0])):
            session = res.nodes[head].session
            for n in side:
                assert res.nodes[n].session.derived == session.derived

    def test_heal_merges_to_single_min_leader(self):
        res = toy_run(node_count=6, seed=11, duration=200 * SECOND,
                      schedule=(PartitionAt(60 * SECOND, ((1, 2, 3), (4, 5, 6))),
                                HealAt(120 * SECOND)))
        assert replay(res).converged
        [head] = replay(res).leaders
        # survivors of the merge follow the smaller-id leader
        demotions = [r for r in res.transcript.of_kind("STATE")
                     if (r.get("why") or "").startswith("demoted_to_")]
        for rec in demotions:
            new_leader = int(rec.get("why").rsplit("_", 1)[1])
            assert new_leader < rec.node

    def test_interim_keys_differ_from_final(self):
        res = toy_run(node_count=6, seed=11, duration=200 * SECOND,
                      schedule=(PartitionAt(60 * SECOND, ((1, 2, 3), (4, 5, 6))),
                                HealAt(120 * SECOND)))
        [head] = replay(res).leaders
        final = res.nodes[head].session.derived
        partition_keys = {k.derived for k in res.metrics.key_events
                          if 60 * SECOND < k.time < 120 * SECOND}
        assert partition_keys
        assert final not in partition_keys

    def test_node_joining_inside_a_partition_takes_its_named_cell(self):
        # in this seed nodes 1 and 2 both announce in the election race,
        # so node 5 has a broadcast to hear from each cell-mate
        res = toy_run(node_count=4, seed=18, duration=60 * SECOND,
                      schedule=(PartitionAt(5 * SECOND, ((1, 2, 5), (3, 4))),
                                JoinAt(10 * SECOND, 5), HealAt(40 * SECOND)))
        records = res.transcript
        heard = {r.get("from") for r in records.of_kind("DELIVER")
                 if r.node == 5 and r.time < 40 * SECOND}
        assert heard == {1, 2}
        senders = {r.get("id"): r.node for r in records.of_kind("SEND")}
        cut_off = {senders[r.get("id")] for r in records.of_kind("SUPPRESS")
                   if r.node == 5 and r.get("reason") == "partition"}
        assert cut_off and cut_off <= {3, 4}

    def test_overlapping_cells_rejected(self):
        with pytest.raises(OverlapError):
            toy_run(node_count=4, seed=1, duration=10 * SECOND,
                    schedule=(PartitionAt(SECOND, ((1, 2), (2, 3))),))

    def test_empty_partition_noop(self):
        res = toy_run(node_count=3, seed=1, duration=40 * SECOND,
                      schedule=(PartitionAt(SECOND, ()),))
        assert replay(res).converged


class TestChurn:
    def test_graceful_leave_rekeys_within_one_beacon(self):
        res = toy_run(node_count=4, seed=5, duration=70 * SECOND,
                      schedule=(LeaveAt(40 * SECOND, 2),))
        assert replay(res).converged
        assert 2 not in replay(res).live
        del_send = next(r for r in res.transcript.of_kind("SEND")
                        if r.get("kind") == "DEL")
        rekey = next(r for r in res.transcript.of_kind("REKEY")
                     if r.time > 40 * SECOND)
        assert rekey.time - del_send.time <= NodeConfig().period_t

    def test_graceful_leave_is_one_leave_record(self):
        res = toy_run(node_count=4, seed=1, duration=60 * SECOND,
                      schedule=(LeaveAt(40 * SECOND, 3),))
        [leave] = res.transcript.of_kind("LEAVE")
        assert leave.render() == "40000000 LEAVE 3"

    def test_crash_rekeys_within_expiry_window(self):
        res = toy_run(node_count=4, seed=5, duration=80 * SECOND,
                      schedule=(CrashAt(40 * SECOND, 2),))
        assert replay(res).converged
        config = NodeConfig()
        rekey = next(r for r in res.transcript.of_kind("REKEY")
                     if r.time > 40 * SECOND)
        # expiry threshold plus one beacon period plus jitters
        bound = config.silence_threshold + config.period_t + 2 * config.jitter_max
        assert rekey.time - 40 * SECOND <= bound

    def test_leader_crash_triggers_election(self):
        probe = toy_run(node_count=6, seed=13, duration=30 * SECOND)
        [old] = replay(probe).leaders
        res = toy_run(node_count=6, seed=13, duration=90 * SECOND,
                      schedule=(CrashAt(30 * SECOND, old),))
        heads = replay(res).leaders
        assert len(heads) == 1 and heads[0] != old
        assert replay(res).converged

    def test_join_immediate_with_eager(self):
        res = toy_run(node_count=3, seed=5, duration=60 * SECOND,
                      schedule=(JoinAt(30 * SECOND, 9),))
        join_keys = [k for k in res.metrics.key_events if k.node_id == 9]
        assert join_keys
        assert min(k.time for k in join_keys) < 40 * SECOND
        assert replay(res).converged

    def test_unknown_node_leave_rejected(self):
        with pytest.raises(UnknownNode):
            toy_run(node_count=3, seed=1, duration=20 * SECOND,
                    schedule=(LeaveAt(SECOND, 77),))

    @pytest.mark.parametrize("schedule", [
        (JoinAt(SECOND, 2),),                          # initial id
        (JoinAt(SECOND, 9), JoinAt(2 * SECOND, 9)),    # joined twice
        (CrashAt(SECOND, 2), JoinAt(2 * SECOND, 2)),   # departed id rejoins
        (CrashAt(SECOND, 2), LeaveAt(2 * SECOND, 2)),  # no longer live
        (LeaveAt(2 * SECOND, 9), JoinAt(5 * SECOND, 9)),
        (LeaveAt(SECOND, 9), JoinAt(SECOND, 9)),       # same time: list order
        # a partition naming an id that neither starts nor ever joins
        (PartitionAt(SECOND, ((1, 2), (3, 99))),),
        (JoinAt(SECOND, 9), PartitionAt(2 * SECOND, ((1, 2, 9), (3, 8)))),
        (PartitionAt(SECOND, ((0, 1), (2, 3))),),      # ids start at 1
    ])
    def test_bad_schedule_rejected_by_validate(self, schedule):
        """The schedule is replayed in (time, index) order before the run."""
        with pytest.raises(UnknownNode):
            SimConfig(node_count=3, schedule=schedule).validate()

    def test_partition_may_name_a_later_joiner_or_a_departed_node(self):
        config = SimConfig(node_count=3, schedule=(
            CrashAt(SECOND, 3),
            PartitionAt(2 * SECOND, ((1, 3), (2, 9))),
            JoinAt(5 * SECOND, 9)))
        assert config.validate() is config

    def test_schedule_replay_follows_time_not_list_order(self):
        config = SimConfig(node_count=3, schedule=(
            LeaveAt(5 * SECOND, 9), JoinAt(SECOND, 9),
            PartitionAt(6 * SECOND, ((1, 2), (3,)))))
        assert config.validate() is config
        with pytest.raises(OverlapError):
            SimConfig(node_count=3, schedule=(
                PartitionAt(SECOND, ((1, 2), (2, 3))),)).validate()

    @pytest.mark.parametrize("schedule", [
        (JoinAt(SECOND, 2**32),),
        (JoinAt(SECOND, -5),),
        (LeaveAt(SECOND, 2**32),),
        (CrashAt(SECOND, -1),),
        (PartitionAt(SECOND, ((1, 2), (3, 2**32))),),
        (PartitionAt(SECOND, ((1, -2), (3,))),),
    ])
    def test_id_outside_the_wire_range_rejected_by_validate(self, schedule):
        """Ids travel as 4-byte unsigned fields, so one outside
        [0, 2^32-1] could only fail mid-run."""
        with pytest.raises(ConfigError, match="outside"):
            SimConfig(node_count=3, schedule=schedule).validate()

    def test_wire_range_edges_accepted(self):
        config = SimConfig(node_count=3, schedule=(
            JoinAt(SECOND, 0), JoinAt(SECOND, 2**32 - 1),
            PartitionAt(2 * SECOND, ((0, 1), (2**32 - 1, 2, 3)))))
        assert config.validate() is config

    def test_node_count_beyond_the_wire_range_rejected(self):
        # validate only: a run of that many nodes is never started
        with pytest.raises(ConfigError, match="node_count"):
            SimConfig(node_count=2**32).validate()

    def test_validate_holds_no_set_of_starting_ids(self):
        import tracemalloc

        config = SimConfig(node_count=10**6, schedule=(
            JoinAt(SECOND, 0), LeaveAt(2 * SECOND, 10**6),
            CrashAt(3 * SECOND, 0)))
        tracemalloc.start()
        try:
            assert config.validate() is config
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(UnknownNode, match="already exists"):
            SimConfig(node_count=10**6,
                      schedule=(JoinAt(SECOND, 10**6),)).validate()


class TestAuditIntegration:
    def test_clean_lossy_run_audits_clean_on_prod(self):
        from agdh.group_arith import PROD
        res = run(SimConfig(node_count=6, seed=21, loss_prob=0.2,
                            duration=60 * SECOND), NodeConfig(), PROD)
        report = audit_transcript(res)
        assert report.clean, report.findings

    def test_converged_by_finds_convergence_time(self):
        res = toy_run(node_count=5, seed=3, duration=60 * SECOND)
        t = converged_by(res)
        assert t is not None
        assert t <= 30 * SECOND

    def test_converged_by_drops_the_key_a_degenerate_fold_dissolves(self):
        """Node 3, alone in its cell, keeps the run from converging until
        it crashes just after leader 1's degenerate fold excluded its only
        member: from then on the leader holds no key, so the crash does
        not complete a convergence."""
        def toy_pair(*schedule):
            isolated = (PartitionAt(0, ((1, 2), (3,))),)
            return toy_run(node_count=3, seed=7, duration=120 * SECOND,
                           initial_leader=1, schedule=isolated + schedule,
                           node_config=NodeConfig(renew_p=10 * SECOND))

        at = next(r.time for r in toy_pair().transcript
                  if r.kind == "DEGENERATE_EXCLUDED")
        res = toy_pair(CrashAt(at + 1, 3))
        t = converged_by(res)
        assert t is not None and t > at + 1
        # the first convergence is the leader's next key, held by node 2
        keyed = {r.node for r in res.transcript.of_kind("KEY")
                 if at < r.time <= t}
        assert keyed == {1, 2}
        assert [(r.kind, r.node) for r in res.transcript
                if r.time == at and r.kind in ("DEGENERATE_EXCLUDED",
                                               "DISSOLVE")] == \
            [("DEGENERATE_EXCLUDED", 1), ("DISSOLVE", 1)]

    def test_converged_by_does_not_count_an_election(self):
        """Leader 1 crashes while its keyed announcement is still in flight
        to node 3.  Node 2 then wins the election still holding leader 1's
        key, which node 3 also holds by then; convergence is only when node
        2's own key reaches node 3."""
        old, new = b"\x01" * 32, b"\x02" * 32
        t = Transcript()
        state, key = ("mode", "why"), ("leader", "epoch", "key")
        t.append(0, "STATE", 1, state, "leader", "chosen_initial")
        t.append(10, "KEY", 1, key, 1, 1, old)
        t.append(11, "KEY", 2, key, 1, 1, old)
        t.append(12, "CRASH", 1, ())
        t.append(13, "KEY", 3, key, 1, 1, old)
        t.append(25, "STATE", 2, state, "candidate", "slot_5")
        t.append(27, "STATE", 3, state, "candidate", "slot_9")
        t.append(30, "STATE", 2, state, "leader", "backoff_won")
        t.append(31, "STATE", 3, state, "member",
                 "announcement_during_backoff")
        t.append(40, "KEY", 2, key, 2, 2, new)
        t.append(41, "KEY", 3, key, 2, 2, new)
        result = SimpleNamespace(config=SimConfig(node_count=3), transcript=t)
        assert converged_by(result) == 41


def churn_timeline(node_count: int, rng: random.Random) -> tuple:
    """A valid schedule of up to four entries, 5-30 s apart: a join of a
    fresh id, a leave or crash of a live id, a two-cell partition of the
    live ids, or a heal."""
    live, fresh, at, entries = list(range(1, node_count + 1)), node_count + 1, 0, []
    for _ in range(rng.randint(1, 4)):
        at += rng.randrange(5, 30) * SECOND
        pick = rng.randrange(4)
        if pick == 0:
            entries.append(JoinAt(at, fresh))
            live.append(fresh)
            fresh += 1
        elif pick == 1 and len(live) > 1:
            victim = live.pop(rng.randrange(len(live)))
            entries.append(rng.choice((LeaveAt, CrashAt))(at, victim))
        elif pick == 2 and len(live) > 1:
            ids = rng.sample(live, len(live))
            split = rng.randint(1, len(ids) - 1)
            entries.append(PartitionAt(at, (tuple(ids[:split]),
                                            tuple(ids[split:]))))
        else:
            entries.append(HealAt(at))
    return tuple(entries)


class TestConvergenceFold:
    def test_one_node_run_converges_when_it_takes_the_lead(self):
        res = toy_run(node_count=1, seed=0)
        [lead] = [r.time for r in res.transcript.of_kind("STATE")
                  if r.get("mode") == "leader"]
        assert replay(res).converged
        assert converged_by(res) == lead == 16_400_000

    def test_one_pass_gives_the_first_time_and_the_end_state(self):
        """The run converges, then splits for good: each cell keeps a
        leader, so it ends unconverged, and the first time stands."""
        res = toy_run(node_count=6, seed=0, duration=120 * SECOND,
                      schedule=(PartitionAt(60 * SECOND,
                                            ((1, 2, 3), (4, 5, 6))),))
        fold = replay(res)
        assert fold.converged_at == 21_001_069
        assert not fold.converged
        assert fold.leaders == [3, 4]
        assert fold.live == [1, 2, 3, 4, 5, 6]

    def test_end_state_equals_the_nodes_end_state(self):
        """Over a TOY grid with churn and partitions, the records say what
        the nodes hold at the end: the live ids, the leaders, each live
        node's key, and the end-state convergence rule read off them."""
        rng = random.Random(26)
        outcomes = set()
        for n, loss, seed in itertools.product(
                range(1, 10), (0.0, 0.1, 0.3), range(2)):
            schedule = churn_timeline(n, rng)
            res = toy_run(node_count=n, loss_prob=loss, seed=seed,
                          duration=schedule[-1].at + 40 * SECOND,
                          schedule=schedule)
            fold = replay(res)
            gone = {e.node_id for e in schedule
                    if isinstance(e, (LeaveAt, CrashAt))}
            joined = {e.node_id for e in schedule if isinstance(e, JoinAt)}
            live = sorted((set(range(1, n + 1)) | joined) - gone)
            assert fold.live == live
            heads = [i for i in live if res.nodes[i].mode is Mode.LEADER]
            assert fold.leaders == heads
            keys = {i: res.nodes[i].session for i in live}
            assert {i: rec and rec.get("key") for i, rec in fold.keys.items()} \
                == {i: key and key.derived for i, key in keys.items()}
            lead = keys[heads[0]] if len(heads) == 1 else None
            assert fold.converged == (len(heads) == 1 and (
                len(live) == 1 or lead is not None and all(
                    key is not None and key.derived == lead.derived
                    for key in keys.values())))
            outcomes.add((fold.converged, bool(gone)))
        # the grid holds converged and split ends, with and without departures
        assert outcomes == {(True, False), (True, True), (False, False),
                            (False, True)}


def test_steady_state_message_rate():
    """Established group of n: one period carries n-1 contribution unicasts
    and one announcement broadcast (counted over ten periods to absorb
    jitter at the window edges)."""
    n, periods = 5, 10
    config = NodeConfig()
    res = toy_run(node_count=n, seed=33,
                  duration=(30 + periods * 5) * SECOND)
    assert replay(res).converged
    window = (30 * SECOND, (30 + periods * 5) * SECOND)
    ireplies = sum(1 for r in res.transcript.of_kind("SEND")
                   if r.get("kind") == "IREPLY" and window[0] <= r.time < window[1])
    igroups = sum(1 for r in res.transcript.of_kind("SEND")
                  if r.get("kind") == "IGROUP" and window[0] <= r.time < window[1])
    slack = n - 1
    assert abs(ireplies - periods * (n - 1)) <= slack
    assert abs(igroups - periods) <= 1


def test_churn_run_sends_exactly_the_defined_kinds():
    """Formation, a late join, a graceful leave and a crash between them
    send every message kind the wire layer defines, and no other."""
    schedule = load_scenario(os.path.join(SCENARIO_DIR, "churn.scn"))
    res = toy_run(node_count=10, seed=1, duration=120 * SECOND,
                  schedule=schedule)
    sent = {r.get("kind") for r in res.transcript.of_kind("SEND")}
    assert sent == {kind.name for kind in MessageKind}
