"""Tampered-message corpus for the adversarial-rejection criterion.

Builds a live leader/member pair, then feeds each class of tampered wire to
the relevant node and records whether anything was accepted or changed.
"""

import random
from dataclasses import dataclass

from agdh.group_arith import PROD, TOY, GroupParams
from agdh.messages import (
    GroupEntry,
    HmacKeyRing,
    Message,
    MessageKind,
    build_del,
    build_igroup,
    build_ireply,
    encode_canonical,
    encode_signed,
    sign,
)
from agdh.node_fsm import MessageArrived, Node, NodeConfig, TimerFired, TimerKind

RING = HmacKeyRing.provision(range(1, 10), master="adversarial")


@dataclass
class Outcome:
    accepted: bool | None
    state_unchanged: bool
    key_changes: int
    sends: int
    wire: bytes
    reason: str | None  # the node's reject reason, if it logged one
    params: GroupParams
    element: int | None = None  # the non-member a hostile-element probe carries


def _elect(node):
    node.start(0)
    out = node.handle(TimerFired(TimerKind.SILENCE),
                      node.deadlines[TimerKind.SILENCE])
    out = node.handle(TimerFired(TimerKind.BACKOFF),
                      node.deadlines[TimerKind.BACKOFF])
    return out.sends[0]


def build_pair(params: GroupParams = TOY):
    """Leader 1 with keyed members 2 and 3; returns nodes and live wires."""
    leader = Node(1, NodeConfig(), params, RING, random.Random("corpus/1"))
    member = Node(2, NodeConfig(), params, RING, random.Random("corpus/2"))
    other = Node(3, NodeConfig(), params, RING, random.Random("corpus/3"))
    empty = _elect(leader)
    now = leader.deadlines[TimerKind.BEACON] - 1_000_000
    member.start(0)
    other.start(0)
    reply2 = member.handle(MessageArrived(empty.wire), now).sends[0]
    reply3 = other.handle(MessageArrived(empty.wire), now + 1000).sends[0]
    leader.handle(MessageArrived(reply2.wire), now + 2000)
    leader.handle(MessageArrived(reply3.wire), now + 3000)
    out = leader.handle(TimerFired(TimerKind.BEACON),
                        leader.deadlines[TimerKind.BEACON])
    keyed = out.sends[0]
    t = keyed.message.epoch  # noqa: F841  (epoch 1)
    now = leader.deadlines[TimerKind.BEACON]
    member.handle(MessageArrived(keyed.wire), now + 1000)
    other.handle(MessageArrived(keyed.wire), now + 2000)
    assert leader.session and member.session and other.session
    assert member.session.derived == leader.session.derived
    return leader, member, other, empty, keyed, reply2, now + 10_000


def _flip(wire: bytes, offset: int) -> bytes:
    tampered = bytearray(wire)
    tampered[offset] ^= 0x01
    return bytes(tampered)


def _resigned(outgoing, canonical: bytes) -> bytes:
    """``canonical`` signed by the sender of ``outgoing``, as a wire."""
    signature = RING.sign(outgoing.message.sender_id, canonical)
    return canonical + len(signature).to_bytes(2, "big") + signature


def _canonical(outgoing) -> bytes:
    msg, wire = outgoing.message, outgoing.wire
    return wire[:len(wire) - 2 - len(msg.signature)]


def _retired_kind(outgoing, kind: int) -> bytes:
    """The wire of ``outgoing`` under another kind byte, validly re-signed
    by the same sender."""
    return _resigned(outgoing, bytes([kind]) + _canonical(outgoing)[1:])


def _substituted(outgoing, old: int, new: int, params: GroupParams) -> bytes:
    """The wire of ``outgoing`` with element ``old`` replaced by ``new``,
    validly re-signed by the same sender.  Built from bytes because the
    encoder refuses a non-member."""
    width = params.element_width
    canonical = _canonical(outgoing)
    field = old.to_bytes(width, "big")
    assert canonical.count(field) == 1
    return _resigned(outgoing, canonical.replace(field, new.to_bytes(width, "big")))


def run_corpus() -> dict[str, Outcome]:
    outcomes: dict[str, Outcome] = {}

    def probe(name, node, wire, now, element=None):
        digest = node.state_digest()
        out = node.handle(MessageArrived(wire), now)
        outcomes[name] = Outcome(
            accepted=out.accepted,
            state_unchanged=node.state_digest() == digest,
            key_changes=len(out.key_changes),
            sends=len(out.sends),
            wire=wire,
            reason=next((e[1] for e in out.log if e[0] == "reject"), None),
            params=node.params,
            element=element,
        )

    # --- flipped signature bytes -----------------------------------------
    leader, member, other, empty, keyed, reply2, now = build_pair()
    probe("igroup_sig_flip_first", member, _flip(keyed.wire, len(keyed.wire) - 32), now)
    probe("igroup_sig_flip_last", member, _flip(keyed.wire, len(keyed.wire) - 1), now)

    # --- payload bit flips break the signature ----------------------------
    probe("igroup_payload_flip", member, _flip(keyed.wire, 40), now)

    # --- member 2's registered IREPLY, flipped, TOY and PROD -----------------
    # The leader decodes an IREPLY against the wire the sender's share was
    # registered from: a flipped signature byte leaves the bytes it compares
    # alone, and a flipped entry nonce byte does not.
    for suffix, params in (("", TOY), ("_prod", PROD)):
        leader, member, other, empty, keyed, reply2, now = build_pair(params)
        assert leader.lead.view[2].wire is reply2.wire
        probe(f"ireply_sig_flip{suffix}", leader,
              _flip(reply2.wire, len(reply2.wire) - 5), now)
        probe(f"ireply_payload_flip{suffix}", leader, _flip(reply2.wire, 40), now)

    # --- wrong-sender signatures ------------------------------------------
    leader, member, other, empty, keyed, reply2, now = build_pair()
    msg = keyed.message
    forged = msg._replace(signature=RING.sign(5, encode_canonical(
        msg._replace(signature=b""), TOY)))
    probe("igroup_wrong_key", member, encode_signed(forged, TOY), now)
    fake_reply = build_ireply(4, bytes(16), 99,
                              GroupEntry(4, bytes(16), 16, None))
    forged_reply = fake_reply._replace(signature=RING.sign(
        5, encode_canonical(fake_reply, TOY)))
    probe("ireply_wrong_key", leader, encode_signed(forged_reply, TOY), now)

    # --- unknown sender ----------------------------------------------------
    stranger = build_ireply(99, bytes(16), 1, GroupEntry(99, bytes(16), 16, None))
    stranger = stranger._replace(signature=bytes(32))
    probe("unknown_sender", leader, encode_signed(stranger, TOY), now)

    # --- stale-epoch replays, the IREPLY on TOY and PROD ---------------------
    for suffix, params in (("", TOY), ("_prod", PROD)):
        leader, member, other, empty, keyed, reply2, now = build_pair(params)
        # advance the group one epoch via the leader's renewal
        out = leader.handle(TimerFired(TimerKind.RENEWAL),
                            leader.deadlines[TimerKind.RENEWAL])
        fresh = out.sends[0]
        member.handle(MessageArrived(fresh.wire), now)
        if not suffix:
            probe("stale_igroup_replay", member, keyed.wire, now + 1000)
        # the very wire member 2's share was registered from
        probe(f"stale_ireply_replay{suffix}", leader, reply2.wire, now + 2000)

    # --- stale DEL replay ----------------------------------------------------
    leader, member, other, empty, keyed, reply2, now = build_pair()
    del_msg = sign(build_del(2, member.contribution.nonce, member.seq + 1),
                   RING, TOY)
    del_wire = encode_signed(del_msg, TOY)
    leader.handle(MessageArrived(del_wire), now)  # genuine withdrawal
    probe("del_replay", leader, del_wire, now + 1000)

    # --- wrong-nonce and wrong-value echoes (validly signed) -----------------
    leader, member, other, empty, keyed, reply2, now = build_pair()
    entries = list(keyed.message.entries)
    index = next(i for i, e in enumerate(entries) if e.participant_id == 2)
    bad_nonce = entries.copy()
    bad_nonce[index] = entries[index]._replace(nonce=bytes(16))
    wrong_nonce = sign(build_igroup(1, keyed.message.sender_nonce,
                                    keyed.message.epoch + 1, bad_nonce),
                       RING, TOY)
    probe("wrong_nonce_echo", member, encode_signed(wrong_nonce, TOY), now)

    bad_value = entries.copy()
    substitute = 9 if entries[index].blinded_secret != 9 else 13
    bad_value[index] = entries[index]._replace(blinded_secret=substitute)
    wrong_value = sign(build_igroup(1, keyed.message.sender_nonce,
                                    keyed.message.epoch + 1, bad_value),
                       RING, TOY)
    probe("wrong_blinded_echo", member, encode_signed(wrong_value, TOY), now)

    # --- structurally broken wires -------------------------------------------
    probe("truncated", member, keyed.wire[: len(keyed.wire) // 2], now)
    probe("unknown_kind", member, b"\x09" + keyed.wire[1:], now)

    # --- validly signed messages of kinds the protocol no longer sends -------
    # (INIT, JOIN, JREPLY, JGROUP, DGROUP)
    for kind in (0x01, 0x04, 0x05, 0x06, 0x08):
        probe(f"retired_kind_{kind:#04x}_igroup", member,
              _retired_kind(keyed, kind), now)
        probe(f"retired_kind_{kind:#04x}_ireply", leader,
              _retired_kind(reply2, kind), now)

    # --- validly signed non-members on PROD -----------------------------------
    # p-1 has order 2; p-x is the non-member next to a known element x (q is
    # odd, so (p-x)^q = -1).  The IGROUP puts them where the member's own
    # response goes, which the member would raise to its inverted secret; the
    # IREPLY puts them where the blind goes, which the leader would raise to
    # its own secret.
    leader, member, other, empty, keyed, reply2, now = build_pair(PROD)
    p = PROD.modulus
    entry = next(e for e in keyed.message.entries if e.participant_id == 2)
    response, blinded = entry.blinded_response, reply2.message.entries[0].blinded_secret
    for label, value in (("p_minus_1", p - 1), ("p_minus_response", p - response)):
        probe(f"hostile_element_igroup_{label}", member,
              _substituted(keyed, response, value, PROD), now, element=value)
    for label, value in (("p_minus_1", p - 1), ("p_minus_blind", p - blinded)):
        probe(f"hostile_element_ireply_{label}", leader,
              _substituted(reply2, blinded, value, PROD), now, element=value)

    # --- validly signed announcements naming a member twice, TOY and PROD ----
    # The member's key fold multiplies every announced response and checks
    # no ids itself, so a repeated entry would fold its response twice; the
    # decoder must refuse the wire first.  The epoch is new, so the member
    # would otherwise derive a key from it.
    for label, params in (("toy", TOY), ("prod", PROD)):
        leader, member, other, empty, keyed, reply2, now = build_pair(params)
        msg = keyed.message
        entries = msg.entries + (msg.entries[-1],)
        twice = sign(Message(MessageKind.IGROUP, msg.sender_id, msg.sender_nonce,
                             msg.epoch + 1, entries), RING, params)
        probe(f"duplicate_ids_{label}", member, encode_signed(twice, params), now)

    # --- validly signed announcements that name their own sender -----------
    # The leader's entry would fold a response into the key that no member
    # answered for.  The epoch is new, so only the grammar stops the wire.
    for label, params in (("toy", TOY), ("prod", PROD)):
        leader, member, other, empty, keyed, reply2, now = build_pair(params)
        msg = keyed.message
        entries = msg.entries + (msg.entries[-1]._replace(participant_id=1),)
        own = sign(Message(MessageKind.IGROUP, msg.sender_id, msg.sender_nonce,
                           msg.epoch + 1, entries), RING, params)
        probe(f"sender_in_entries_{label}", member, encode_signed(own, params), now)

    # --- validly signed IREPLYs carrying another member's contribution -----
    # Member 2 registers member 3's share under its own name; the seq is
    # fresh, so only the grammar stops the wire.
    for label, params in (("toy", TOY), ("prod", PROD)):
        leader, member, other, empty, keyed, reply2, now = build_pair(params)
        foreign = sign(Message(MessageKind.IREPLY, 2, member.contribution.nonce,
                               member.seq + 1, (other.contribution,)), RING, params)
        probe(f"ireply_foreign_entry_{label}", leader,
              encode_signed(foreign, params), now)

    # --- validly signed IREPLYs that nearly match a registered wire ---------
    # The leader compares an IREPLY with the wire the sender's share was
    # registered from, from the entry count through the signature length.
    # Member 3's registered body under member 2's header and a fresh seq,
    # signed by 2, matches member 3's wire there but not member 2's; member
    # 2's registered wire with one trailing byte matches there but not in
    # length; and with its signature length changed it matches in length
    # but not there.  Each is malformed.
    for label, params in (("toy", TOY), ("prod", PROD)):
        leader, member, other, empty, keyed, reply2, now = build_pair(params)
        registered2, registered3 = (leader.lead.view[pid].wire for pid in (2, 3))
        sig_len_at = len(registered2) - 2 - len(reply2.message.signature)
        # kind, sender and nonce fill bytes 0-21, the seq 21-29, and the
        # entry count starts at byte 29; both wires have one length
        fresh_seq = (member.seq + 1).to_bytes(8, "big")
        probe(f"ireply_memo_foreign_body_{label}", leader, _resigned(
            reply2, registered2[:21] + fresh_seq + registered3[29:sig_len_at]),
            now)
        probe(f"ireply_memo_trailing_byte_{label}", leader,
              registered2 + b"\0", now)
        probe(f"ireply_memo_sig_len_{label}", leader,
              registered2[:sig_len_at] + (33).to_bytes(2, "big")
              + registered2[sig_len_at + 2:], now)

    # --- validly signed DELs with a forged nonce, TOY and PROD --------------
    # A fresh seq passes the replay check, so only the nonce, which does not
    # match the member's registered contribution, stands between the wire
    # and the member's removal.
    for label, params in (("toy", TOY), ("prod", PROD)):
        leader, member, other, empty, keyed, reply2, now = build_pair(params)
        forged_del = sign(build_del(2, bytes(16), member.seq + 1), RING, params)
        probe(f"del_forged_nonce_{label}", leader,
              encode_signed(forged_del, params), now)

    # --- validly signed announcements answering the member with the identity -
    # A response of 1 would make the member recover the leader blind 1, so
    # its key would be the product of the public responses.  The epoch is
    # new, so the member would otherwise derive a key from it.
    for label, params in (("toy", TOY), ("prod", PROD)):
        leader, member, other, empty, keyed, reply2, now = build_pair(params)
        msg = keyed.message
        entries = tuple(e._replace(blinded_response=1) if e.participant_id == 2
                        else e for e in msg.entries)
        identity = sign(build_igroup(1, msg.sender_nonce, msg.epoch + 1, entries),
                        RING, params)
        probe(f"identity_response_{label}", member,
              encode_signed(identity, params), now)

    # --- validly signed announcements claiming the largest entry count -----
    # The count says 65,535 entries, the wire holds the leader's two; the
    # epoch is new.  The decoder reads the count before any signature is
    # checked, so the wire's length must refuse it before a layout of that
    # many entries is built.
    for label, params in (("toy", TOY), ("prod", PROD)):
        leader, member, other, empty, keyed, reply2, now = build_pair(params)
        canonical = _canonical(keyed)
        probe(f"hostile_count_{label}", member, _resigned(keyed, b"".join((
            canonical[:21], (keyed.message.epoch + 1).to_bytes(8, "big"),
            b"\xff\xff", canonical[31:]))), now)

    # --- validly signed wires in a layout no honest sender writes ----------
    # Each would be fresh (a new seq or epoch) and correctly signed, but an
    # IREPLY carries exactly one entry without a response, an IGROUP answers
    # every entry and a DEL carries none, so each is malformed.
    for label, params in (("toy", TOY), ("prod", PROD)):
        leader, member, other, empty, keyed, reply2, now = build_pair(params)
        seq, own = member.seq + 1, member.contribution
        off_layout = {
            "ireply_two_entries": (leader, Message(
                MessageKind.IREPLY, 2, own.nonce, seq,
                (own, own._replace(nonce=bytes(16))))),
            "ireply_response": (leader, Message(
                MessageKind.IREPLY, 2, own.nonce, seq,
                (own._replace(blinded_response=own.blinded_secret),))),
            "igroup_unanswered": (member, Message(
                MessageKind.IGROUP, 1, keyed.message.sender_nonce,
                keyed.message.epoch + 1,
                tuple(e._replace(blinded_response=None) if e.participant_id == 3
                      else e for e in keyed.message.entries))),
            "del_entry": (leader, Message(MessageKind.DEL, 2, own.nonce, seq,
                                          (own,))),
        }
        for name, (node, msg) in off_layout.items():
            probe(f"off_layout_{name}_{label}", node,
                  encode_signed(sign(msg, RING, params), params), now)

    return outcomes
