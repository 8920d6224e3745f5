import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adversarial_corpus import build_pair
from agdh import messages, node_fsm
from agdh.errors import ConfigError, MalformedMessage, ShapeViolation
from agdh.gka_core import oracle_key
from agdh.group_arith import PROD, TOY
from agdh.messages import (
    GroupEntry,
    HmacKeyRing,
    Message,
    MessageKind,
    build_del,
    build_igroup,
    build_ireply,
    decode,
    encode_signed,
    read_header,
    sign,
    sign_and_encode,
    verify,
)
from agdh.node_fsm import (
    LocalLeaveRequest,
    MessageArrived,
    Mode,
    Node,
    NodeConfig,
    SessionKey,
    TimerFired,
    TimerKind,
)

SEC = 1_000_000
RING = HmacKeyRing.provision(range(1, 30), master="fsm-tests")
CONFIG = NodeConfig()


def make_node(node_id: int, config: NodeConfig = CONFIG, seed=None) -> Node:
    rng = random.Random(f"fsm/{seed if seed is not None else node_id}")
    return Node(node_id, config, TOY, RING, rng)


def fire(node: Node, kind: TimerKind):
    """Fire the node's armed deadline for the given timer kind."""
    at = node.deadlines[kind]
    return node.handle(TimerFired(kind), at), at


def elect(node: Node, start=0):
    """Drive a fresh node through silence and backoff into leadership."""
    node.start(start)
    out, _ = fire(node, TimerKind.SILENCE)
    assert node.mode is Mode.CANDIDATE
    out, at = fire(node, TimerKind.BACKOFF)
    assert node.mode is Mode.LEADER
    return out, at


def ireply_wire(sender: int, seq: int, secret: int, nonce: bytes) -> bytes:
    blinded = pow(TOY.generator, secret, TOY.modulus)
    entry = GroupEntry(sender, nonce, blinded, None)
    msg = sign(build_ireply(sender, nonce, seq, entry), RING, TOY)
    return encode_signed(msg, TOY)


def deliver(node: Node, wire: bytes, now: int):
    return node.handle(MessageArrived(wire), now)


class TestElection:
    def test_lone_node_elects_itself(self):
        node = make_node(1)
        out = node.start(0)
        silence = node.deadlines[TimerKind.SILENCE]
        assert silence == CONFIG.silence_threshold
        out, _ = fire(node, TimerKind.SILENCE)
        assert node.mode is Mode.CANDIDATE
        backoff = node.deadlines[TimerKind.BACKOFF]
        slots = (backoff - silence) / CONFIG.slot_trtd
        assert 1 <= slots <= CONFIG.backoff_window
        out, at = fire(node, TimerKind.BACKOFF)
        assert node.mode is Mode.LEADER
        [announcement] = out.sends
        assert announcement.dest is None
        assert announcement.message.kind is MessageKind.IGROUP
        assert announcement.message.entries == ()

    def test_announcement_during_backoff_reverts(self):
        node = make_node(5)
        node.start(0)
        fire(node, TimerKind.SILENCE)
        leader = make_node(3)
        lead_out, at = elect(leader)
        out = deliver(node, lead_out.sends[0].wire, at + 1000)
        assert node.mode is Mode.MEMBER
        assert node.leader_id == 3
        # the revert cancelled the pending backoff: firing it is a no-op
        assert TimerKind.BACKOFF not in node.deadlines
        [reply] = out.sends
        assert reply.message.kind is MessageKind.IREPLY
        assert reply.dest == 3

    def test_adoption_sends_contribution(self):
        leader = make_node(3)
        lead_out, at = elect(leader)
        member = make_node(5)
        member.start(0)
        out = deliver(member, lead_out.sends[0].wire, at + 1000)
        assert out.accepted
        [reply] = out.sends
        entry = reply.message.entries[0]
        assert entry.participant_id == 5
        assert entry.blinded_secret == pow(TOY.generator, member.own_secret, TOY.modulus)


class TestLeaderConflict:
    def test_larger_leader_demotes_to_smaller(self):
        low, high = make_node(7), make_node(12)
        low_out, at = elect(low)
        elect(high)
        out = deliver(high, low_out.sends[0].wire, at + 1000)
        assert high.mode is Mode.MEMBER
        assert high.lead is None
        assert high.leader_id == 7
        assert any(s.message.kind is MessageKind.IREPLY and s.dest == 7
                   for s in out.sends)

    def test_demoted_leader_leads_again_from_scratch(self):
        """A demotion drops the whole leader role: a blocklist, a view and
        a key do not carry over into the next lead."""
        low, high = make_node(7), make_node(12)
        low_out, _ = elect(low)
        _, at = elect(high)
        # 1 + 4 + 6 = 0 mod 11: member 3, registered last, is blocked
        deliver(high, ireply_wire(2, 1, 4, bytes([2]) * 16), at + 1000)
        deliver(high, ireply_wire(3, 1, 6, bytes([3]) * 16), at + 2000)
        out, now = fire(high, TimerKind.BEACON)
        assert ("degenerate_excluded", 3) in out.log
        # and so is member 5 by its join rekey, with 1 + 4 + 6 again
        out = deliver(high, ireply_wire(5, 1, 6, bytes([5]) * 16), now + 1000)
        assert ("degenerate_excluded", 5) in out.log
        assert set(high.lead.view) == {2} and set(high.lead.blocked) == {3, 5}
        # member 3 re-registers fresh: its join rekey folds it at once
        out = deliver(high, ireply_wire(3, 2, 9, bytes([9]) * 16), now + 2000)
        assert any(e[:2] == ("rekey", "join") for e in out.log)
        role = high.lead
        assert high.session is not None
        assert set(role.view) == {2, 3} and set(role.blocked) == {5}

        deliver(high, low_out.sends[0].wire, now + 3000)
        assert high.mode is Mode.MEMBER and high.lead is None
        fire(high, TimerKind.SILENCE)
        assert high.mode is Mode.CANDIDATE
        fire(high, TimerKind.BACKOFF)
        assert high.mode is Mode.LEADER and high.lead is not role
        assert high.lead.view == {} and high.lead.blocked == {}
        assert high.session is None

    def test_smaller_leader_discards_larger(self):
        low, high = make_node(7), make_node(12)
        elect(low)
        high_out, at = elect(high)
        out = deliver(low, high_out.sends[0].wire, at + 1000)
        assert low.mode is Mode.LEADER
        assert out.accepted is False
        assert not out.sends

    def test_member_discards_larger_leader(self):
        low, high, member = make_node(7), make_node(12), make_node(9)
        low_out, at = elect(low)
        high_out, _ = elect(high)
        member.start(0)
        deliver(member, low_out.sends[0].wire, at + 1000)
        assert member.leader_id == 7
        out = deliver(member, high_out.sends[0].wire, at + 2000)
        assert member.leader_id == 7
        assert out.accepted is False
        assert not out.sends

    def test_member_switches_to_smaller_leader(self):
        low, high, member = make_node(7), make_node(12), make_node(9)
        low_out, at_low = elect(low)
        high_out, at_high = elect(high)
        member.start(0)
        deliver(member, high_out.sends[0].wire, at_high + 1000)
        assert member.leader_id == 12
        out = deliver(member, low_out.sends[0].wire, at_high + 2000)
        assert member.leader_id == 7
        assert any(s.message.kind is MessageKind.IREPLY and s.dest == 7
                   for s in out.sends)


def leader_secret(node: Node) -> int:
    """The secret of the node's latest rekey, from the log the auditor
    reads: a leader keeps it nowhere else."""
    return next(r.secret for r in reversed(node.secret_log)
                if r.role == "leader")


def established_group(member_secrets: dict[int, int], leader_id=1, config=CONFIG):
    """Leader that has folded the given member id -> secret contributions."""
    leader = make_node(leader_id, config)
    _, at = elect(leader)
    now = at
    for i, (pid, secret) in enumerate(member_secrets.items()):
        now += 1000
        out = deliver(leader, ireply_wire(pid, 1, secret, bytes([pid]) * 16), now)
        assert out.accepted
    out, now = fire(leader, TimerKind.BEACON)
    assert leader.session is not None
    [announcement] = out.sends
    return leader, announcement, now


class TestKeying:
    def test_formation_key_matches_oracle(self):
        leader, announcement, _ = established_group({2: 4, 3: 5})
        expected = oracle_key(leader_secret(leader), [4, 5], TOY)
        assert leader.session.group_key == expected
        assert announcement.message.epoch == leader.session.epoch == 1

    def test_member_computes_same_key(self):
        leader, announcement, now = established_group({2: 4, 3: 5})
        member = make_node(2, seed="m2")
        member.start(0)
        # adopt via an empty beacon first, then receive the keyed one
        member.own_secret = None
        deliver(member, announcement.wire, now + 1000)
        # contribution does not match (fresh member): this tests the absent
        # path; now drive a real member through the sim-style flow instead
        leader2 = make_node(11, seed="L")
        lead_out, at = elect(leader2)
        member2 = make_node(12, seed="M")
        member2.start(0)
        out = deliver(member2, lead_out.sends[0].wire, at + 1000)
        reply = out.sends[0]
        out = deliver(leader2, reply.wire, at + 2000)
        out, t_beacon = fire(leader2, TimerKind.BEACON)
        keyed = out.sends[0]
        out = deliver(member2, keyed.wire, t_beacon + 1000)
        assert member2.session is not None
        assert member2.session.group_key == leader2.session.group_key
        assert member2.session.derived == leader2.session.derived
        [change] = out.key_changes
        assert change.epoch == leader2.session.epoch

    def test_key_change_is_the_held_session(self):
        lead = make_node(11, seed="L")
        lead_out, at = elect(lead)
        member = make_node(12, seed="M")
        member.start(0)
        out = deliver(member, lead_out.sends[0].wire, at + 1000)
        deliver(lead, out.sends[0].wire, at + 2000)
        out, t_beacon = fire(lead, TimerKind.BEACON)
        # the leader's keyed step reports the record it now holds
        assert out.key_changes == [lead.session]
        assert out.key_changes[0] is lead.session
        assert lead.session == SessionKey(t_beacon, 11, 11, 1,
                                          lead.session.group_key,
                                          lead.session.derived)
        # a named tuple equals any tuple of its values: the type apart
        assert type(lead.session) is SessionKey
        t_member = t_beacon + 1000
        out = deliver(member, out.sends[0].wire, t_member)
        assert out.key_changes == [member.session]
        assert out.key_changes[0] is member.session
        assert member.session == lead.session._replace(time=t_member,
                                                       node_id=12)

    def test_rebeacon_is_bit_identical(self):
        leader, announcement, _ = established_group({2: 4, 3: 5})
        out, _ = fire(leader, TimerKind.BEACON)
        assert out.sends[0].wire == announcement.wire
        assert out.sends[0].message.epoch == announcement.message.epoch

    def test_rebeacon_costs_member_nothing(self):
        lead = make_node(11, seed="L")
        lead_out, at = elect(lead)
        member = make_node(12, seed="M")
        member.start(0)
        out = deliver(member, lead_out.sends[0].wire, at + 1000)
        deliver(lead, out.sends[0].wire, at + 2000)
        out, t_beacon = fire(lead, TimerKind.BEACON)
        keyed = out.sends[0]
        deliver(member, keyed.wire, t_beacon + 1000)
        assert member.session is not None
        expos = member.counter.count  # blind + recover
        assert expos == 2
        out = deliver(member, keyed.wire, t_beacon + 2000)
        assert out.accepted is True
        assert member.counter.count == expos  # identical re-beacon is free
        assert not out.key_changes

    def test_wrong_nonce_echo_rejected_without_state_change(self):
        leader, announcement, now = established_group({2: 4, 3: 5})
        member = make_node(2, seed="target")
        member.start(0)
        # hand-craft the member to hold the echoed contribution
        entry = next(e for e in announcement.message.entries
                     if e.participant_id == 2)
        member.leader_id = 1
        member.own_secret = 4
        member.contribution = entry._replace(blinded_response=None)
        member.contribution_leader = 1

        # tampered echo, validly signed by the leader's key
        bad_entry = entry._replace(nonce=bytes(16))
        bad = sign(build_igroup(1, announcement.message.sender_nonce,
                                announcement.message.epoch,
                                [bad_entry] + [e for e in announcement.message.entries
                                               if e.participant_id != 2]),
                   RING, TOY)
        digest_before = member.state_digest()
        out = deliver(member, encode_signed(bad, TOY), now + 1000)
        assert out.accepted is False
        assert member.state_digest() == digest_before
        assert member.session is None
        assert not out.key_changes
        # the contribution is re-sent so an honest leader can fold it again
        assert [s.message.kind for s in out.sends] == [MessageKind.IREPLY]

        # the genuine echo is then accepted and keys the member
        out = deliver(member, announcement.wire, now + 2000)
        assert out.accepted is True
        assert member.session is not None
        assert member.session.group_key == leader.session.group_key

    def test_absent_echo_knocks(self):
        leader, announcement, now = established_group({2: 4, 3: 5})
        member = make_node(9, seed="knock")
        member.start(0)
        out = deliver(member, announcement.wire, now + 1000)
        assert out.accepted is True
        assert member.session is None  # cannot compute: not included
        assert [s.message.kind for s in out.sends] == [MessageKind.IREPLY]

    def test_contribution_reminted_after_repeated_omission(self):
        leader, announcement, now = established_group({2: 4, 3: 5})
        member = make_node(9, seed="remint")
        member.start(0)
        deliver(member, announcement.wire, now + 1000)
        first = member.contribution
        # identical re-beacons keep the omission streak counting (fast path)
        for i in range(CONFIG.miss_k):
            out = deliver(member, announcement.wire, now + (i + 2) * 1000)
        assert member.contribution != first


class TestMembershipChanges:
    def test_del_removes_and_rekeys(self):
        leader, announcement, now = established_group({2: 4, 3: 5})
        epoch_before = leader.session.epoch
        secret_before = leader_secret(leader)
        nonce2 = bytes([2]) * 16
        wire = encode_signed(sign(build_del(2, nonce2, 7), RING, TOY), TOY)
        out = deliver(leader, wire, now + 1000)
        assert out.accepted
        assert 2 not in leader.lead.view
        assert leader.session.epoch == epoch_before + 1
        assert leader_secret(leader) != secret_before  # fresh contribution
        [announcement2] = out.sends
        ids = [e.participant_id for e in announcement2.message.entries]
        assert ids == [3]
        [change] = out.key_changes
        assert change.epoch == epoch_before + 1

    def test_del_with_wrong_nonce_rejected(self):
        leader, _, now = established_group({2: 4, 3: 5})
        wire = encode_signed(sign(build_del(2, bytes(16), 7), RING, TOY), TOY)
        out = deliver(leader, wire, now + 1000)
        assert out.accepted is False
        assert 2 in leader.lead.view

    def test_del_replay_rejected(self):
        leader, _, now = established_group({2: 4, 3: 5})
        wire = encode_signed(sign(build_del(2, bytes([2]) * 16, 7), RING, TOY), TOY)
        assert deliver(leader, wire, now + 1000).accepted
        out = deliver(leader, wire, now + 2000)
        assert out.accepted is False
        assert leader.session.epoch == 2  # no second rekey

    def test_last_member_del_dissolves(self):
        leader, _, now = established_group({2: 4})
        wire = encode_signed(sign(build_del(2, bytes([2]) * 16, 7), RING, TOY), TOY)
        out = deliver(leader, wire, now + 1000)
        assert leader.session is None
        assert not leader.lead.view

    def test_batched_expiry_single_rekey(self):
        leader, _, now = established_group({2: 4, 3: 5, 6: 2})
        epoch_before = leader.session.epoch
        # node 6 keeps replying; 2 and 3 fall silent
        t = now
        rekeys = 0
        seq = 10
        while t < now + 2 * CONFIG.silence_threshold:
            out, t = fire(leader, TimerKind.BEACON)
            rekeys += sum(1 for entry in out.log if entry[0] == "rekey")
            seq += 1
            deliver(leader, ireply_wire(6, seq, 2, bytes([6]) * 16), t + 1000)
        assert 2 not in leader.lead.view and 3 not in leader.lead.view
        assert 6 in leader.lead.view
        assert leader.session.epoch == epoch_before + 1
        assert rekeys == 1

    def test_ireply_replay_rejected(self):
        leader, _, now = established_group({2: 4, 3: 5})
        wire = ireply_wire(2, 9, 4, bytes([2]) * 16)
        assert deliver(leader, wire, now + 1000).accepted
        out = deliver(leader, wire, now + 2000)
        assert out.accepted is False

    def test_new_member_keyed_in_the_same_step(self):
        """Under the default config, a member that registers after the
        formation is folded by a join rekey in the step that registers it."""
        leader, _, now = established_group({2: 4, 3: 5})
        epoch_before = leader.session.epoch
        out = deliver(leader, ireply_wire(9, 1, 7, bytes([9]) * 16), now + 1000)
        assert out.accepted
        assert 9 in leader.lead.view
        assert ("register", 9, "new") in out.log
        assert ("rekey", "join", epoch_before + 1) in out.log
        assert leader.session.epoch == epoch_before + 1
        assert out.key_changes == [leader.session]
        [sent] = out.sends
        assert {e.participant_id for e in sent.message.entries} == {2, 3, 9}
        assert leader.session.group_key == oracle_key(
            leader_secret(leader), [4, 5, 7], TOY)

    def test_renewal_changes_key_with_unchanged_membership(self):
        leader, _, now = established_group({2: 4, 3: 5})
        epoch_before = leader.session.epoch
        key_before = leader.session.group_key
        secret_before = leader_secret(leader)
        out, _ = fire(leader, TimerKind.RENEWAL)
        assert leader.session.epoch == epoch_before + 1
        assert leader_secret(leader) != secret_before
        # fresh leader secret changes the key except on exponent collision
        if (secret_before * (1 + 4 + 5)) % TOY.order != \
                (leader_secret(leader) * (1 + 4 + 5)) % TOY.order:
            assert leader.session.group_key != key_before

    def test_member_renewal_carried_in_next_reply(self):
        leader, announcement, now = established_group({2: 4, 3: 5})
        member = make_node(12, seed="rn")
        lead2 = make_node(11, seed="rn-lead")
        lead_out, at = elect(lead2)
        member.start(0)
        deliver(member, lead_out.sends[0].wire, at + 1000)
        old = member.contribution
        out, _ = fire(member, TimerKind.RENEWAL)
        assert not out.sends  # not sent immediately
        assert member.contribution != old
        assert member.prev_contribution == old
        out, _ = fire(member, TimerKind.REPLY)
        entry = out.sends[0].message.entries[0]
        assert entry.blinded_secret == member.contribution.blinded_secret


class TestDegenerateRecovery:
    def test_exclusion_and_blocklist(self):
        # secrets 4 and 6: 1 + 4 + 6 = 0 mod 11 degenerates the key
        leader = make_node(1)
        _, at = elect(leader)
        deliver(leader, ireply_wire(2, 1, 4, bytes([2]) * 16), at + 1000)
        deliver(leader, ireply_wire(3, 1, 6, bytes([3]) * 16), at + 2000)
        out, now = fire(leader, TimerKind.BEACON)
        assert any(e[0] == "degenerate_excluded" for e in out.log)
        assert leader.session is not None
        assert leader.session.group_key != 1
        ids = {e.participant_id for e in out.sends[0].message.entries}
        assert ids == {2}  # last-registered contribution excluded
        # the same blinded value from node 3 is now ignored
        out = deliver(leader, ireply_wire(3, 2, 6, bytes([3]) * 16), now + 1000)
        assert out.accepted
        assert 3 not in leader.lead.view
        # a fresh secret lifts the block, and its join rekey folds it
        out = deliver(leader, ireply_wire(3, 3, 9, bytes([9]) * 16), now + 2000)
        assert 3 in leader.lead.view and not leader.lead.blocked
        assert {e.participant_id for e in out.sends[0].message.entries} == {2, 3}
        assert leader.session.group_key == oracle_key(
            leader_secret(leader), [4, 9], TOY)

    def test_refresh_moves_registration_last(self):
        """A changed contribution counts as the newest registration: it is
        the one excluded on a degenerate fold, and it follows the unchanged
        ones in the announcement."""
        def formed(refresh_secret):
            # 1 + 1 + 6 is not 0 mod 11, so the group forms with 2 and 3
            leader = make_node(1)
            _, at = elect(leader)
            deliver(leader, ireply_wire(2, 1, 1, bytes([2]) * 16), at + 1000)
            deliver(leader, ireply_wire(3, 1, 6, bytes([3]) * 16), at + 2000)
            _, now = fire(leader, TimerKind.BEACON)
            assert leader.session is not None
            out = deliver(leader, ireply_wire(2, 2, refresh_secret,
                                              bytes([12]) * 16), now + 1000)
            assert ("register", 2, "update") in out.log
            out, _ = fire(leader, TimerKind.RENEWAL)
            return leader, out

        # 1 + 4 + 6 = 0 mod 11: member 2 changed last, so it is excluded
        leader, out = formed(4)
        assert ("degenerate_excluded", 2) in out.log
        assert [e.participant_id for e in out.sends[0].message.entries] == [3]
        assert leader.lead.blocked == {2: pow(TOY.generator, 4, TOY.modulus)}

        leader, out = formed(2)
        assert not any(e[0] == "degenerate_excluded" for e in out.log)
        assert [e.participant_id for e in out.sends[0].message.entries] == [3, 2]
        assert leader.session.group_key == oracle_key(
            leader_secret(leader), [6, 2], TOY)

    def test_excluding_the_last_member_dissolves(self):
        # 1 + 10 = 0 mod 11: the refreshed contribution is the only one
        leader = make_node(1)
        _, at = elect(leader)
        deliver(leader, ireply_wire(2, 1, 3, bytes([2]) * 16), at + 1000)
        _, now = fire(leader, TimerKind.BEACON)
        assert leader.session is not None
        deliver(leader, ireply_wire(2, 2, 10, bytes([12]) * 16), now + 1000)
        out, _ = fire(leader, TimerKind.RENEWAL)
        assert out.log == [("renewal",), ("degenerate_excluded", 2),
                           ("dissolve",)]
        assert leader.session is None
        assert not leader.lead.view
        assert leader.lead.blocked == {2: pow(TOY.generator, 10, TOY.modulus)}
        # the empty announcement still goes out at once
        [sent] = out.sends
        assert sent is leader.lead.announcement
        assert not sent.message.entries


class TestRejection:
    def test_malformed_dropped(self):
        node = make_node(1)
        node.start(0)
        out = deliver(node, b"\x09garbage", 1000)
        assert out.accepted is False
        assert node.mode is Mode.MEMBER

    def test_bad_signature_dropped(self):
        leader, announcement, now = established_group({2: 4})
        tampered = bytearray(announcement.wire)
        tampered[-1] ^= 0x01
        member = make_node(9, seed="sig")
        member.start(0)
        digest = member.state_digest()
        out = deliver(member, bytes(tampered), now + 1000)
        assert out.accepted is False
        assert member.state_digest() == digest
        assert not out.sends

    def test_stale_epoch_replay_rejected(self):
        leader, first, now = established_group({2: 4, 3: 5})
        member = make_node(12, seed="stale")
        lead2 = make_node(11, seed="stale-lead")
        lead_out, at = elect(lead2)
        member.start(0)
        out = deliver(member, lead_out.sends[0].wire, at + 1000)
        deliver(lead2, out.sends[0].wire, at + 2000)
        out, t = fire(lead2, TimerKind.BEACON)
        epoch1 = out.sends[0]
        deliver(member, epoch1.wire, t + 1000)
        assert member.session.epoch == lead2.session.epoch
        # leader rekeys (renewal); member accepts the new epoch
        out, _ = fire(lead2, TimerKind.RENEWAL)
        epoch2 = out.sends[0]
        deliver(member, epoch2.wire, t + 2000)
        digest = member.state_digest()
        replay = deliver(member, epoch1.wire, t + 3000)
        assert replay.accepted is False
        assert member.state_digest() == digest
        assert not replay.key_changes


def refusal(out) -> str:
    """The reason a step refused its message, as the transcript records it."""
    assert out.accepted is False
    return next(e[1] for e in out.log if e[0] == "reject")


def adopted_member(node_id=5, seed="adopted"):
    """A leader that won its election and a member that adopted it from
    its empty announcement: (leader, member, now)."""
    leader = make_node(1)
    lead_out, at = elect(leader)
    member = make_node(node_id, seed=seed)
    member.start(0)
    assert deliver(member, lead_out.sends[0].wire, at + 1000).accepted
    return leader, member, at + 2000


def signed_igroup(leader_id, nonce, epoch, entries) -> bytes:
    """A validly signed announcement, built without the shape check."""
    msg = Message(MessageKind.IGROUP, leader_id, nonce, epoch, tuple(entries))
    return encode_signed(sign(msg, RING, TOY), TOY)


class TestRefusalsKeepState:
    """Validly signed messages that each reach one refusal; none of them
    changes the receiver's protocol state."""

    def refuse(self, node, wire, now) -> str:
        digest = node.state_digest()
        out = deliver(node, wire, now)
        assert node.state_digest() == digest
        assert not out.key_changes
        return refusal(out)

    def test_duplicate_entry_id_is_malformed(self):
        leader, announcement, now = established_group({2: 4, 3: 5})
        member = make_node(9, seed="dup")
        member.start(0)
        entry = announcement.message.entries[0]
        wire = signed_igroup(1, announcement.message.sender_nonce,
                             announcement.message.epoch, [entry, entry])
        assert self.refuse(member, wire, now + 1000) == "malformed"

    def test_own_message_heard_back(self):
        leader, announcement, now = established_group({2: 4, 3: 5})
        assert self.refuse(leader, announcement.wire, now + 1000) == "self_echo"

    def test_announcement_folding_to_identity(self):
        leader, member, now = adopted_member()
        p, g = TOY.modulus, TOY.generator
        secret, mine = member.own_secret, member.contribution
        assert (1 + secret) % TOY.order != 0
        leader_secret = 3
        response = pow(mine.blinded_secret, leader_secret, p)
        leader_blind = pow(g, leader_secret, p)
        cancel = pow(leader_blind * response % p, -1, p)
        entries = [GroupEntry(5, mine.nonce, mine.blinded_secret, response),
                   GroupEntry(7, bytes([7]) * 16, g, cancel)]
        wire = signed_igroup(1, leader.lead.nonce, 1, entries)
        assert self.refuse(member, wire, now) == "degenerate_announcement"
        # nothing about the refused wire is remembered: its repeat is
        # checked in full and refused again
        assert self.refuse(member, wire, now + 1000) == "degenerate_announcement"

    def test_del_sent_to_a_member(self):
        leader, member, now = adopted_member()
        wire = encode_signed(sign(build_del(7, bytes([7]) * 16, 1), RING, TOY), TOY)
        assert self.refuse(member, wire, now) == "not_leader"

    def test_ireply_sent_to_a_member(self):
        leader, member, now = adopted_member()
        wire = ireply_wire(7, 1, 3, bytes([7]) * 16)
        assert self.refuse(member, wire, now) == "not_leader"


def keyed_member(leader_id=3, member_id=9):
    """A leader and a member holding its epoch-1 key:
    (leader, member, now)."""
    leader = make_node(leader_id)
    lead_out, at = elect(leader)
    member = make_node(member_id, seed="M")
    member.start(0)
    reply = deliver(member, lead_out.sends[0].wire, at + 1000).sends[0]
    deliver(leader, reply.wire, at + 2000)
    out, now = fire(leader, TimerKind.BEACON)
    assert deliver(member, out.sends[0].wire, now + 1000).key_changes
    assert (member.leader_id, member.leader_epochs[leader_id]) == (leader_id, 1)
    return leader, member, now + 2000


def hostile_igroup(sender: int, epoch: int, defect: str) -> bytes:
    """An announcement whose header is sound and whose body fails a later
    check: its signature corrupted, or a non-member in its first element
    field, validly re-signed."""
    entries = [GroupEntry(2, bytes([2]) * 16, 16, 2)]
    wire = signed_igroup(sender, bytes([sender]) * 16, epoch, entries)
    if defect == "bad_signature":
        wire = wire[:-1] + bytes([wire[-1] ^ 0x01])
        assert not verify(decode(wire, TOY), wire, RING)
        return wire
    canonical = bytearray(wire[:-34])
    canonical[31 + 4 + 16 + 1] = 5  # the blinded secret; 5 is no member
    signature = RING.sign(sender, bytes(canonical))
    wire = bytes(canonical) + len(signature).to_bytes(2, "big") + signature
    with pytest.raises(MalformedMessage, match="bad group element"):
        decode(wire, TOY)
    return wire


class TestHeaderTriage:
    """An announcement from a leader the node would not follow is refused
    from its fixed header, before it is decoded or its signature checked."""

    @pytest.mark.parametrize("defect", ["bad_signature", "non_member"])
    @pytest.mark.parametrize("reason, sender, epoch", [
        ("stale_epoch", 3, 0),     # the member's own leader, an older epoch
        ("larger_leader", 7, 5),   # a leader with a larger id than its own
    ])
    def test_refused_from_the_header(self, monkeypatch, reason, sender,
                                     epoch, defect):
        leader, member, now = keyed_member()
        wire = hostile_igroup(sender, epoch, defect)

        def forbidden(wire, params, header=None, memo=None):
            raise AssertionError("a triaged wire was decoded")

        monkeypatch.setattr(node_fsm, "decode", forbidden)
        digest = member.state_digest()
        out = deliver(member, wire, now)
        assert refusal(out) == reason
        assert member.state_digest() == digest
        assert not out.sends and not out.key_changes

    @pytest.fixture
    def decoded(self, monkeypatch):
        wires = []

        def spy(wire, params, header=None, memo=None):
            assert header == read_header(wire)
            wires.append(wire)
            return decode(wire, params, header, memo)

        monkeypatch.setattr(node_fsm, "decode", spy)
        return wires

    def test_own_leader_announcement_is_decoded(self, decoded):
        leader, member, now = keyed_member()
        out, _ = fire(leader, TimerKind.RENEWAL)
        [rekeyed] = out.sends
        decoded.clear()
        out = deliver(member, rekeyed.wire, now)
        assert out.accepted is True
        assert [change.epoch for change in out.key_changes] == [2]
        assert decoded == [rekeyed.wire]

    def test_smaller_leader_announcement_is_decoded(self, decoded):
        leader, member, now = keyed_member()
        smaller = make_node(1)
        lead_out, _ = elect(smaller)
        [announcement] = lead_out.sends
        decoded.clear()
        out = deliver(member, announcement.wire, now)
        assert out.accepted is True
        assert member.leader_id == 1
        assert decoded == [announcement.wire]


def test_receive_reads_each_header_once_and_checks_no_shape(monkeypatch):
    """Over a lossy TOY run with elections, rekeys and two malformed
    injections: every wire that misses the rebeacon fast path has its
    header read exactly once, by triage, whose header ``decode`` takes; a
    fast-path wire is not read at all.  ``validate_shape`` runs only inside
    the builders: on a received wire it only names the id defect of an
    announcement ``decode`` refuses, and this run sends none."""
    from agdh import messages
    from agdh.simnet import SECOND, InjectAt, SimConfig, run

    reads, shapes, builds = [], [], []
    per_wire = {"fast": [], "slow": []}

    def counted(fn, calls):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return wrapper

    header_reader = counted(messages.read_header, reads)
    monkeypatch.setattr(messages, "read_header", header_reader)
    monkeypatch.setattr(node_fsm, "read_header", header_reader)
    monkeypatch.setattr(messages, "validate_shape",
                        counted(messages.validate_shape, shapes))
    monkeypatch.setattr(messages, "_build", counted(messages._build, builds))
    real_on_wire = Node._on_wire

    def on_wire(self, wire, now, out):
        fast = (self.mode is Mode.MEMBER and self.leader_id is not None
                and wire == self.last_announcement_wire)
        before = len(reads)
        real_on_wire(self, wire, now, out)
        per_wire["fast" if fast else "slow"].append(len(reads) - before)

    monkeypatch.setattr(Node, "_on_wire", on_wire)
    run(SimConfig(node_count=6, seed=4, loss_prob=0.2, duration=60 * SECOND,
                  schedule=(InjectAt(30 * SECOND, 2, b"\x09garbage"),
                            InjectAt(31 * SECOND, 3, bytes(20)))),
        NodeConfig(), TOY)
    assert per_wire["fast"] and set(per_wire["fast"]) == {0}
    assert per_wire["slow"] and set(per_wire["slow"]) == {1}
    assert not hasattr(node_fsm, "validate_shape")
    assert builds and len(shapes) == len(builds)


class TestLeaderBookkeeping:
    def test_del_from_unknown_member(self):
        leader, _, now = established_group({2: 4, 3: 5})
        view = dict(leader.lead.view)
        wire = encode_signed(sign(build_del(9, bytes([9]) * 16, 4), RING, TOY), TOY)
        out = deliver(leader, wire, now + 1000)
        assert out.accepted is True
        assert ("del_unknown", 9) in out.log
        assert leader.lead.view == view and not out.sends and not out.key_changes
        # its sequence number is spent: the same DEL again is a replay
        assert refusal(deliver(leader, wire, now + 2000)) == "replay_seq"

    def test_renewal_with_empty_view_redraws_the_nonce(self):
        leader = make_node(1)
        lead_out, _ = elect(leader)
        [first] = lead_out.sends
        out, _ = fire(leader, TimerKind.RENEWAL)
        assert ("renewal",) in out.log
        assert not out.sends and not out.key_changes
        assert leader.session is None
        out, _ = fire(leader, TimerKind.BEACON)
        [beacon] = out.sends
        assert beacon.message.entries == ()
        assert beacon.message.epoch == first.message.epoch
        assert beacon.message.sender_nonce == leader.lead.nonce
        assert beacon.message.sender_nonce != first.message.sender_nonce


class TestLeave:
    def test_graceful_member_sends_del(self):
        leader, announcement, now = established_group({2: 4})
        member = make_node(12, seed="leave")
        lead2 = make_node(11, seed="leave-lead")
        lead_out, at = elect(lead2)
        member.start(0)
        deliver(member, lead_out.sends[0].wire, at + 1000)
        out = member.handle(LocalLeaveRequest(), at + 2000)
        [msg] = out.sends
        assert msg.message.kind is MessageKind.DEL
        assert msg.dest == 11
        assert msg.message.sender_nonce == member.contribution.nonce

    def test_leaderless_member_leaves_silently(self):
        node = make_node(1)
        node.start(0)
        out = node.handle(LocalLeaveRequest(), 1000)
        assert not out.sends


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            NodeConfig(miss_k=1).validate()
        with pytest.raises(ConfigError):
            NodeConfig(period_t=0).validate()
        with pytest.raises(ConfigError):
            NodeConfig(renew_p=5_000_000).validate()
        with pytest.raises(ConfigError):
            NodeConfig(jitter_max=5_000_000).validate()
        assert NodeConfig().validate() is not None

    def test_rekey_on_join_is_not_a_knob(self):
        with pytest.raises(ConfigError, match="eager_rekey"):
            NodeConfig(eager_rekey=False).validate()
        assert NodeConfig().eager_rekey is True

    def test_defaults_match_protocol_table(self):
        config = NodeConfig()
        assert config.period_t == 5 * SEC
        assert config.renew_p == 20 * 60 * SEC
        assert config.miss_k == 3
        assert config.backoff_window == 20
        assert config.slot_trtd == 100_000


def test_identity_contribution_rejected():
    """A blinded secret equal to the identity element cannot come from a
    secret in [1, q-1] and is refused."""
    from agdh.messages import build_ireply as _build
    leader = make_node(1)
    _, at = elect(leader)
    entry = GroupEntry(2, bytes([2]) * 16, 1, None)
    msg = sign(_build(2, bytes([2]) * 16, 1, entry), RING, TOY)
    out = deliver(leader, encode_signed(msg, TOY), at + 1000)
    assert out.accepted is False
    assert 2 not in leader.lead.view


# -- keepalives: the member re-signs, the leader refreshes from bytes ----------


def ireplies(out) -> list:
    return [s for s in out.sends if s.message.kind is MessageKind.IREPLY]


def fresh_encoding(member: Node):
    """What building and encoding the member's contribution under its
    current seq gives: (signed message, wire)."""
    c = member.contribution
    return sign_and_encode(build_ireply(member.node_id, c.nonce, member.seq, c),
                           member.keyring, member.params)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([TOY, PROD]),
       st.lists(st.sampled_from(["reply", "renewal", "omission", "adopt"]),
                max_size=14))
def test_every_ireply_equals_a_fresh_encoding(params, actions):
    """On TOY and PROD, over reply timers, renewals, remints after miss_k
    omitted announcements and adoptions of a new leader: every IREPLY's
    message and wire equal building and encoding the contribution the
    member then holds under its seq, so a wire after a new contribution
    carries the new blinded value."""
    member = Node(20, CONFIG, params, RING, random.Random(f"keepalive/{params.name}"))
    member.start(0)
    leader_ids = iter(range(19, 0, -1))  # each adopted leader is smaller
    now = 0

    def check(out):
        for reply in ireplies(out):
            assert (reply.message, reply.wire) == fresh_encoding(member)
            assert type(reply.message) is Message and reply.dest == member.leader_id
            assert decode(reply.wire, params).entries[0] == member.contribution

    def new_leader() -> bytes:
        leader = Node(next(leader_ids), CONFIG, params, RING,
                      random.Random(f"keepalive/leader/{params.name}"))
        out, _ = elect(leader)
        return out.sends[0].wire

    announcement = new_leader()
    for action in ["adopt", *actions]:
        now += 1000
        if action in ("reply", "renewal"):
            out, now = fire(member, TimerKind[action.upper()])
        else:
            if action == "adopt":
                announcement = new_leader()
            out = deliver(member, announcement, now)
            assert out.accepted
        check(out)


def test_repeated_ireply_is_resigned_without_encoding(monkeypatch):
    """A reply timer that repeats the contribution encodes nothing and
    signs once; the reply after a renewal is encoded again."""
    leader, member, now = adopted_member()
    encoded, signed = [], []

    def counted(fn, calls):
        def wrapper(*args):
            calls.append(1)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(messages, "encode_canonical",
                        counted(messages.encode_canonical, encoded))
    monkeypatch.setattr(RING, "sign", counted(RING.sign, signed))
    first = member.contribution
    for _ in range(3):
        out, _ = fire(member, TimerKind.REPLY)
        [reply] = out.sends
        assert reply.message.entries[0] is first
    assert (len(encoded), len(signed)) == (0, 3)
    fire(member, TimerKind.RENEWAL)
    out, _ = fire(member, TimerKind.REPLY)
    [reply] = out.sends
    assert member.contribution is not first
    assert reply.message.entries[0] is member.contribution
    assert (len(encoded), len(signed)) == (1, 4)


@pytest.mark.parametrize("repeated", [False, True], ids=["first", "repeated"])
def test_seq_past_the_epoch_field_is_refused(repeated):
    """A seq past 2**64 - 1 raises ShapeViolation("epoch"), on a
    contribution's first IREPLY and on a repeated one."""
    leader = make_node(1)
    lead_out, at = elect(leader)
    member = make_node(5)
    member.start(0)
    if repeated:
        deliver(member, lead_out.sends[0].wire, at + 1000)
        member.seq = 2**64 - 2
        fire(member, TimerKind.REPLY)
        with pytest.raises(ShapeViolation, match="^epoch$"):
            fire(member, TimerKind.REPLY)
    else:
        member.seq = 2**64 - 1
        with pytest.raises(ShapeViolation, match="^epoch$"):
            deliver(member, lead_out.sends[0].wire, at + 1000)


def refreshed_leader(params):
    """Leader 1 of keyed members 2 and 3 (the adversarial corpus's group),
    member 2, the IREPLY its share was registered from, and its next
    keepalive: (leader, member, registered, refresh, now)."""
    leader, member, other, empty, keyed, reply2, now = build_pair(params)
    out, at = fire(member, TimerKind.REPLY)
    [refresh] = out.sends
    return leader, member, reply2, refresh, max(now, at) + 1000


def leader_outcome(leader: Node, wire: bytes, now: int) -> tuple:
    """Everything a leader's step on ``wire`` shows: its verdict, reason,
    log and outputs, and the state it leaves, each record's wire and
    liveness among it."""
    out = deliver(leader, wire, now)
    reason = next((e[1] for e in out.log if e[0] == "reject"), None)
    records = [(pid, r.entry, r.wire, r.last_heard)
               for pid, r in leader.lead.view.items()]
    return (out.accepted, reason, out.log, out.sends, out.key_changes,
            leader.state_digest(), dict(leader.seen_seq), records)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_refresh_from_the_registered_wire_matches_a_full_decode(data):
    """On TOY and PROD, member 2's keepalive, or that keepalive with a byte
    flipped, cut short, extended, or re-signed under another nonce or seq:
    a leader that decodes it against the registered wire ends the step as
    one whose decoder takes no memo does."""
    params = data.draw(st.sampled_from([TOY, PROD]))
    mutation = data.draw(st.sampled_from(
        ["honest", "flip", "truncate", "extend", "nonce", "seq"]))
    leader, _, registered, refresh, now = refreshed_leader(params)
    wire = refresh.wire
    if mutation == "flip":
        at = data.draw(st.integers(0, len(wire) - 1))
        wire = (wire[:at] + bytes([wire[at] ^ data.draw(st.integers(1, 255))])
                + wire[at + 1:])
    elif mutation == "truncate":
        wire = wire[:data.draw(st.integers(0, len(wire) - 1))]
    elif mutation == "extend":
        wire += data.draw(st.binary(min_size=1, max_size=3))
    elif mutation in ("nonce", "seq"):
        field = (data.draw(st.binary(min_size=16, max_size=16))
                 if mutation == "nonce" else data.draw(st.sampled_from(
                     [0, 1, refresh.message.epoch, 2**64 - 1])).to_bytes(8, "big"))
        at = 5 if mutation == "nonce" else 21
        canonical = wire[:len(wire) - 2 - len(refresh.message.signature)]
        canonical = canonical[:at] + field + canonical[at + len(field):]
        signature = leader.keyring.sign(2, canonical)
        wire = canonical + len(signature).to_bytes(2, "big") + signature
    assert leader.lead.view[2].wire is registered.wire
    got = leader_outcome(leader, wire, now)

    plain = refreshed_leader(params)[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(node_fsm, "decode",
                      lambda wire, params, header=None, memo=None:
                      decode(wire, params, header))
        assert got == leader_outcome(plain, wire, now)


def test_refresh_keeps_the_registered_wire_and_tests_no_element(monkeypatch):
    """A keepalive refreshes the record in place without a membership test;
    the record keeps the wire its share was registered from, the object
    itself, until a changed share registers from its own wire."""
    leader, member, registered, refresh, now = refreshed_leader(PROD)
    record = leader.lead.view[2]
    tested = []
    monkeypatch.setattr(messages, "is_element",
                        lambda *args: tested.append(args) or True)
    out = deliver(leader, refresh.wire, now)
    assert out.accepted and not out.log and not tested
    assert leader.lead.view[2] is record and record.last_heard == now
    assert record.wire is registered.wire
    monkeypatch.undo()

    fire(member, TimerKind.RENEWAL)
    out, at = fire(member, TimerKind.REPLY)
    [update] = out.sends
    out = deliver(leader, update.wire, max(now, at) + 1000)
    assert ("register", 2, "update") in out.log
    assert leader.lead.view[2].wire is update.wire
