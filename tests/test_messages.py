import functools
import hashlib
import itertools
import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agdh.errors import (
    BadLength,
    MalformedMessage,
    NotInSubgroup,
    ShapeViolation,
    UnknownParticipant,
)
from agdh.gka_core import NONCE_LEN
from agdh import messages
from agdh.group_arith import (
    PROD,
    TOY,
    _in_subgroup,
    decode_element,
    encode_element,
    exp,
    random_scalar,
)
from agdh.messages import (
    GroupEntry,
    HmacKeyRing,
    Message,
    MessageKind,
    build_del,
    build_igroup,
    build_ireply,
    decode,
    encode_canonical,
    read_header,
    encode_signed,
    resign,
    sign,
    sign_and_encode,
    validate_shape,
    verify,
)
from agdh.node_fsm import (
    SECOND,
    MessageArrived,
    NodeConfig,
    Outgoing,
    SecretRecord,
    SessionKey,
    TimerFired,
    TimerKind,
)
from agdh.oracle import CostRow
from agdh.simnet import (
    CrashAt,
    HealAt,
    InjectAt,
    JoinAt,
    LATENCY_MAX,
    LATENCY_MIN,
    LeaveAt,
    PartitionAt,
    Record,
    SimConfig,
)

RING_IDS = range(1, 8)
RING = HmacKeyRing.provision(RING_IDS, master="vector-fixture")
VECTORS = os.path.join(os.path.dirname(__file__), "data", "message_vectors.txt")
TOY_ELEMENTS = [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]
RETIRED_KINDS = ("INIT", "JOIN", "JREPLY", "JGROUP", "DGROUP")


def nonce(byte: int) -> bytes:
    return bytes([byte]) * 16


class TestCanonicalEncoding:
    def test_empty_init_layout(self):
        """A message without entries is the 31-byte header alone."""
        msg = build_del(5, bytes(16), 0)
        data = encode_canonical(msg, TOY)
        assert len(data) == 31
        assert data == bytes([0x07]) + (5).to_bytes(4, "big") + bytes(16) \
            + bytes(8) + bytes(2)

    def test_wire_tags(self):
        expected = {"IREPLY": 2, "IGROUP": 3, "DEL": 7}
        assert {k.name: int(k) for k in MessageKind} == expected

    def test_injective_on_nonce(self):
        entry = GroupEntry(2, nonce(0xAA), 16, 2)
        a = build_igroup(1, nonce(0x11), 1, [entry])
        b = build_igroup(1, nonce(0x11), 1, [entry._replace(nonce=nonce(0xAB))])
        assert encode_canonical(a, TOY) != encode_canonical(b, TOY)

    def test_unknown_kind_byte(self):
        """A byte naming no kind is malformed, the retired kinds included."""
        for kind in (0x00, 0x01, 0x04, 0x05, 0x06, 0x08, 0x09):
            data = bytes([kind]) + bytes(30) + bytes(2)
            with pytest.raises(MalformedMessage, match="unknown kind byte"):
                decode(data, TOY)

    def test_truncation_rejected(self):
        wire = encode_signed(sign(build_del(5, bytes(16), 0), RING, TOY), TOY)
        for cut in (5, 30, len(wire) - 1):
            with pytest.raises(MalformedMessage):
                decode(wire[:cut], TOY)

    def test_non_subgroup_element_rejected(self):
        msg = build_ireply(2, nonce(0xAA), 1, GroupEntry(2, nonce(0xAA), 16, None))
        wire = bytearray(encode_signed(sign(msg, RING, TOY), TOY))
        offset = 31 + 4 + 16 + 1  # first entry's blinded_secret
        wire[offset] = 5  # not in the subgroup
        with pytest.raises(MalformedMessage):
            decode(bytes(wire), TOY)

    def test_kind_must_be_a_message_kind(self):
        """A kind byte that names no kind is refused before any packing:
        decoders would refuse the wire with ``unknown kind byte``."""
        for kind in (5, 0x102, MessageKind.IREPLY.value, None):
            with pytest.raises(ShapeViolation, match="^kind$"):
                encode_canonical(Message(kind, 1, nonce(0x11), 0), TOY)

    def test_nonces_must_be_bytes(self):
        """A 16-character str is not a nonce, for the sender or an entry."""
        with pytest.raises(ShapeViolation, match="^sender_nonce$"):
            encode_canonical(Message(MessageKind.DEL, 1, "n" * 16, 0), TOY)
        entries = (GroupEntry(2, nonce(0xAA), 16, 2),
                   GroupEntry(3, "n" * 16, 9, 16))
        msg = Message(MessageKind.IGROUP, 1, nonce(0x11), 0, entries)
        with pytest.raises(ShapeViolation, match=r"^entries\[1\]\.nonce$"):
            encode_canonical(msg, TOY)

    @pytest.mark.parametrize("value", [0, PROD.modulus - 1, PROD.modulus])
    def test_non_subgroup_element_rejected_on_prod(self, value):
        """Zero, the order-2 element p-1 and an out-of-range value all fit
        the 128-byte field; each still surfaces as MalformedMessage."""
        header = bytes([0x02]) + (2).to_bytes(4, "big") + nonce(0xAA) \
            + (1).to_bytes(8, "big") + (1).to_bytes(2, "big")
        entry = (2).to_bytes(4, "big") + nonce(0xAA) + bytes([0]) \
            + value.to_bytes(PROD.element_width, "big")
        with pytest.raises(MalformedMessage, match="bad group element"):
            decode(header + entry + (0).to_bytes(2, "big"), PROD)


def elements_of(params):
    if params is TOY:
        return st.sampled_from(TOY_ELEMENTS)
    return st.integers(1, PROD.order - 1).map(
        lambda k: pow(PROD.generator, k, PROD.modulus))


@st.composite
def messages_of(draw, params, laid_out=False, max_entries=3, max_sig=40):
    """Messages of every kind over ``params``: each as its kind's honest
    sender writes it if ``laid_out`` (its one layout, and an entry grammar
    :func:`validate_shape` accepts), else in any layout."""
    elements = elements_of(params)
    kind = draw(st.sampled_from(list(MessageKind)))
    sender = draw(st.integers(0, 2**32 - 1))
    if not laid_out:
        response, sizes = st.one_of(st.none(), elements), (0, max_entries)
    elif kind is MessageKind.IREPLY:
        response, sizes = st.none(), (1, 1)
    elif kind is MessageKind.IGROUP:
        response, sizes = elements, (0, max_entries)
    else:
        response, sizes = st.none(), (0, 0)
    ids = st.integers(0, 2**32 - 1)
    if laid_out:
        ids = st.just(sender) if kind is MessageKind.IREPLY \
            else ids.filter(lambda pid: pid != sender)
    entries = draw(st.lists(st.builds(
        GroupEntry,
        participant_id=ids,
        nonce=st.binary(min_size=16, max_size=16),
        blinded_secret=elements,
        blinded_response=response,
    ), min_size=sizes[0], max_size=sizes[1],
        unique_by=(lambda e: e.participant_id) if laid_out else None))
    return Message(kind, sender,
                   draw(st.binary(min_size=16, max_size=16)),
                   draw(st.integers(0, 2**64 - 1)), tuple(entries),
                   draw(st.binary(max_size=max_sig)))


def has_layout(msg: Message) -> bool:
    """True iff ``msg`` is laid out as its kind's honest sender writes it:
    an IREPLY of one entry without a response, an IGROUP whose every entry
    carries one, a DEL without entries."""
    answered = [e.blinded_response is not None for e in msg.entries]
    if msg.kind is MessageKind.IREPLY:
        return answered == [False]
    if msg.kind is MessageKind.IGROUP:
        return all(answered)
    return not answered


def in_grammar(msg: Message) -> bool:
    """True iff ``msg`` is what a receiver may decode: laid out as its
    kind's honest sender writes it, with an entry grammar
    :func:`validate_shape` accepts."""
    try:
        return has_layout(msg) and validate_shape(msg) is msg
    except ShapeViolation:
        return False


#: TOY messages as honest senders write them, up to 5 entries and 80
#: signature bytes
message_strategy = messages_of(TOY, laid_out=True, max_entries=5, max_sig=80)


@given(message_strategy)
def test_roundtrip_random_messages(msg):
    assert decode(encode_signed(msg, TOY), TOY) == msg


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_off_layout_messages_encode_but_never_decode(data):
    """On TOY and PROD, a message in any layout but its kind's own
    encodes, signed or not, and its wire is malformed."""
    params = data.draw(st.sampled_from([TOY, PROD]))
    msg = data.draw(messages_of(params).filter(lambda m: not has_layout(m)))
    msg = msg._replace(sender_id=data.draw(st.integers(0, 8)))
    if msg.sender_id in RING_IDS and data.draw(st.booleans()):
        msg = sign(msg, RING, params)
    wire = encode_signed(msg, params)
    assert reference_decode(wire, params) == msg
    with pytest.raises(MalformedMessage):
        decode(wire, params)


def reference_verify(msg, keyring, params) -> bool:
    """Signature check over a fresh re-encoding of the decoded message."""
    return keyring.verify(msg.sender_id, encode_canonical(msg, params),
                          msg.signature)


def check_wire_prefix(wire: bytes, params) -> None:
    """A wire that decodes is its canonical encoding plus the trailer, and
    verifying the received bytes agrees with verifying a re-encoding."""
    msg = decode(wire, params)
    assert encode_canonical(msg, params) == \
        wire[:len(wire) - 2 - len(msg.signature)]
    assert verify(msg, wire, RING) == reference_verify(msg, RING, params)


@given(message_strategy, st.integers(0, 8), st.booleans())
def test_received_bytes_are_canonical(msg, sender, signed):
    """With another sender, and an IREPLY's entry renamed to match it, a
    message satisfies the identity; an IGROUP that names the new sender
    does not decode."""
    msg = msg._replace(sender_id=sender)
    if msg.kind is MessageKind.IREPLY:
        msg = msg._replace(entries=(msg.entries[0]._replace(participant_id=sender),))
    if signed and sender in RING_IDS:
        msg = sign(msg, RING, TOY)
    if in_grammar(msg):
        check_wire_prefix(encode_signed(msg, TOY), TOY)
    else:
        with pytest.raises(MalformedMessage):
            decode(encode_signed(msg, TOY), TOY)


def test_received_bytes_are_canonical_on_fixed_wires():
    """Every checked-in vector and every adversarial-corpus wire that
    decodes satisfies the same identity."""
    import adversarial_corpus

    with open(VECTORS) as fh:
        wires = {"vector " + " ".join(line.split()[1:]):
                 (bytes.fromhex(line.split()[0]), TOY)
                 for line in fh
                 if line.strip() and not line.startswith("#")}
    wires.update((name, (outcome.wire, outcome.params)) for name, outcome
                 in adversarial_corpus.run_corpus().items())
    malformed = set()
    for name, (wire, params) in wires.items():
        try:
            decode(wire, params)
        except MalformedMessage:
            malformed.add(name)
            continue
        check_wire_prefix(wire, params)
    retired = {name for name in wires for kind in RETIRED_KINDS
               if name.startswith(f"vector kind={kind} ")}
    retired |= {name for name in wires if name.startswith("retired_kind_")}
    hostile = {name for name in wires if name.startswith("hostile_element_")}
    off_layout = {name for name in wires
                  if name.endswith(" layout=off") or name.startswith("off_layout_")}
    grammar = {name for name in wires if name.startswith(GRAMMAR_PROBES)}
    near_memo = {name for name in wires if name.startswith("ireply_memo_")}
    counts = {name for name in wires if name.startswith("hostile_count_")}
    assert len(retired) == 15 and len(hostile) == 4 and len(off_layout) == 11
    assert len(grammar) == 8 and len(near_memo) == 6 and len(counts) == 2
    assert malformed == {"truncated", "unknown_kind"} | retired | hostile \
        | off_layout | grammar | near_memo | counts


#: The corpus probes whose wires are laid out as their kind's but break
#: the entry grammar.
GRAMMAR_PROBES = ("duplicate_ids_", "sender_in_entries_", "ireply_foreign_entry_",
                  "ireply_memo_foreign_body_")


def test_sign_and_encode_matches_sign_then_encode():
    msg = build_igroup(1, nonce(0x11), 3, [GroupEntry(2, nonce(0xAA), 16, 2)])
    signed, wire = sign_and_encode(msg, RING, TOY)
    assert signed == sign(msg, RING, TOY)
    assert wire == encode_signed(signed, TOY)


class LengthyRing:
    """A keyring whose signature length depends on the signed bytes' last
    epoch byte: 32, 64 or 96 bytes."""

    def sign(self, sender_id: int, data: bytes) -> bytes:
        return hashlib.sha256(data).digest() * (1 + data[28] % 3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_resign_matches_sign_and_encode(data):
    """On TOY and PROD, a message of any kind as its sender writes it,
    signed and encoded, then re-signed under any epoch: the signature and
    wire of signing and encoding it under that epoch, also where the new
    signature's length differs from the old one's."""
    params = data.draw(st.sampled_from([TOY, PROD]))
    ring = data.draw(st.sampled_from([RING, LengthyRing()]))
    msg = data.draw(messages_of(params, laid_out=True))
    msg = msg._replace(sender_id=data.draw(st.sampled_from(RING_IDS)))
    epoch = data.draw(st.integers(0, 2**64 - 1))
    _, wire = sign_and_encode(msg, ring, params)
    signed, rewired = sign_and_encode(msg._replace(epoch=epoch), ring, params)
    assert resign(wire, epoch, ring, params) == (signed.signature, rewired)


@pytest.mark.parametrize("epoch", [-1, 2**64])
def test_resign_refuses_an_epoch_the_field_cannot_carry(epoch):
    msg = build_ireply(5, nonce(1), 3, GroupEntry(5, nonce(1), 16, None))
    _, wire = sign_and_encode(msg, RING, TOY)
    for refused in (lambda: resign(wire, epoch, RING, TOY),
                    lambda: sign_and_encode(msg._replace(epoch=epoch), RING, TOY)):
        with pytest.raises(ShapeViolation, match="^epoch$"):
            refused()


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        msg = sign(build_del(5, bytes(16), 0), RING, TOY)
        assert verify(msg, encode_signed(msg, TOY), RING)

    def test_bit_flip_detected(self):
        entry = GroupEntry(2, nonce(0xAA), 16, 2)
        msg = sign(build_igroup(1, nonce(0x11), 1, [entry]), RING, TOY)
        tampered = msg._replace(
            entries=(entry._replace(blinded_secret=9),))
        assert not verify(tampered, encode_signed(tampered, TOY), RING)

    def test_wrong_sender_key(self):
        msg = build_del(4, bytes(16), 0)
        forged = msg._replace(signature=RING.sign(3, encode_canonical(msg, TOY)))
        assert not verify(forged, encode_signed(forged, TOY), RING)

    def test_unknown_sender(self):
        msg = build_del(99, bytes(16), 0)
        unsigned = msg._replace(signature=bytes(32))
        assert not verify(unsigned, encode_signed(unsigned, TOY), RING)
        with pytest.raises(UnknownParticipant):
            sign(msg, RING, TOY)

    def test_flipped_signature_byte(self):
        msg = sign(build_del(5, bytes(16), 0), RING, TOY)
        bad = bytearray(msg.signature)
        bad[0] ^= 0x01
        flipped = msg._replace(signature=bytes(bad))
        assert not verify(flipped, encode_signed(flipped, TOY), RING)


class TestShapes:
    def test_igroup_entry_missing_response(self):
        with pytest.raises(ShapeViolation):
            build_igroup(1, nonce(0x11), 1, [GroupEntry(2, nonce(0xAA), 16, None)])

    def test_ireply_with_response(self):
        with pytest.raises(ShapeViolation):
            build_ireply(2, nonce(0xAA), 1, GroupEntry(2, nonce(0xAA), 16, 2))

    def test_join_single_own_entry_ok(self):
        """A contribution carrying exactly its sender's own entry is valid."""
        msg = build_ireply(4, nonce(0xBB), 1, GroupEntry(4, nonce(0xBB), 9, None))
        assert validate_shape(msg) is msg

    def test_contribution_must_be_own(self):
        with pytest.raises(ShapeViolation):
            build_ireply(2, nonce(0xAA), 1, GroupEntry(3, nonce(0xAA), 16, None))

    def test_del_carries_no_entries(self):
        """The builder writes no entries, and a validly signed DEL that
        carries one does not decode."""
        msg = build_del(2, nonce(0xAA), 5)
        assert msg.entries == ()
        wire = encode_signed(sign(msg._replace(
            entries=(GroupEntry(2, nonce(0xAA), 16, None),)), RING, TOY), TOY)
        assert verify(reference_decode(wire, TOY), wire, RING)
        with pytest.raises(MalformedMessage, match="^DEL: entry_count must be 0$"):
            decode(wire, TOY)

    def test_empty_igroup_ok(self):
        assert build_igroup(1, nonce(0x11), 0, []).entries == ()

    def test_igroup_rejects_leader_entry(self):
        with pytest.raises(ShapeViolation):
            build_igroup(1, nonce(0x11), 1, [GroupEntry(1, nonce(0x11), 16, 2)])

    def test_duplicate_responses_refused_before_any_fold(self):
        """The member's key fold multiplies every announced response and
        checks no ids of its own: a validly signed IGROUP that names a
        member twice must stop at decoding."""
        entries = (GroupEntry(2, nonce(0xAA), 16, 2),
                   GroupEntry(2, nonce(0xAB), 9, 16))
        msg = sign(Message(MessageKind.IGROUP, 1, nonce(0x11), 1, entries),
                   RING, TOY)
        wire = encode_signed(msg, TOY)
        assert verify(reference_decode(wire, TOY), wire, RING)
        with pytest.raises(MalformedMessage, match=r"^IGROUP.entries\[1\]: duplicate id$"):
            decode(wire, TOY)

    def test_igroup_rejects_duplicate_ids(self):
        entries = [GroupEntry(2, nonce(0xAA), 16, 2),
                   GroupEntry(2, nonce(0xAB), 9, 16)]
        with pytest.raises(ShapeViolation):
            build_igroup(1, nonce(0x11), 1, entries)

    def test_ikagroup_example_shape(self):
        """Round-3 announcement carrying three members' contributions and
        responses decodes and validates."""
        entries = [
            GroupEntry(2, nonce(0x22), 16, 2),
            GroupEntry(4, nonce(0x44), 9, 16),
            GroupEntry(5, nonce(0x55), 13, 3),
        ]
        msg = sign(build_igroup(1, nonce(0x11), 1, entries), RING, TOY)
        decoded = decode(encode_signed(msg, TOY), TOY)
        assert decoded == msg
        assert all(e.blinded_response is not None for e in decoded.entries)


def reference_igroup_shape(msg: Message) -> Message:
    """The IGROUP entry loop ``validate_shape`` ran behind a one-pass
    check, kept as a reference for its texts and their order."""
    seen: set[int] = set()
    for i, e in enumerate(msg.entries):
        if e.blinded_response is None:
            raise ShapeViolation(f"IGROUP.entries[{i}].blinded_response")
        if e.participant_id == msg.sender_id:
            raise ShapeViolation(f"IGROUP.entries[{i}].participant_id")
        if e.participant_id in seen:
            raise ShapeViolation(f"IGROUP.entries[{i}]: duplicate id")
        seen.add(e.participant_id)
    return msg


def shape_outcome(check, msg: Message):
    """The message the check returned, or the type and text it raised."""
    try:
        return check(msg)
    except Exception as exc:
        return type(exc), str(exc)


# small id and element pools, so repeated ids, the sender's own id and
# missing responses all turn up, as well as announcements that pass
igroup_strategy = st.builds(
    Message,
    kind=st.just(MessageKind.IGROUP),
    sender_id=st.integers(1, 12),
    sender_nonce=st.just(nonce(0x11)),
    epoch=st.just(1),
    entries=st.lists(st.builds(
        GroupEntry,
        participant_id=st.integers(1, 12),
        nonce=st.just(nonce(0xAA)),
        blinded_secret=st.sampled_from(TOY_ELEMENTS),
        blinded_response=st.sampled_from(TOY_ELEMENTS + [None]),
    ), max_size=8).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(igroup_strategy)
def test_igroup_shape_check_matches_entry_loop(msg):
    got = shape_outcome(validate_shape, msg)
    assert got == shape_outcome(reference_igroup_shape, msg)
    if isinstance(got, Message):
        assert got is msg


VALUE_TYPES = [
    (GroupEntry(2, nonce(0xAA), 16, 2), "nonce", nonce(0xAB)),
    (Message(MessageKind.IGROUP, 1, nonce(0x11), 3,
             (GroupEntry(2, nonce(0xAA), 16, 2),), b"sig"), "epoch", 4),
    (Record(5, "KEY", 2, ("epoch", "key"), (3, b"k")), "node", 9),
    (NodeConfig(), "miss_k", 4),
    (SimConfig(3, schedule=(JoinAt(5, 4),)), "seed", 9),
    (MessageArrived(b"wire"), "wire", b"other"),
    (TimerFired(TimerKind.BEACON), "kind", TimerKind.REPLY),
    (Outgoing(build_del(1, nonce(0x11), 2), b"wire", None), "dest", 3),
    (SessionKey(5, 2, 1, 3, 8, b"derived"), "epoch", 4),
    (SecretRecord("member", 3, 8, nonce(0xAA)), "secret", 4),
    (PartitionAt(5, ((1, 2), (3,))), "cells", ((1,), (2, 3))),
    (HealAt(5), "at", 6),
    (JoinAt(5, 4), "node_id", 6),
    (LeaveAt(5, 4), "node_id", 6),
    (CrashAt(5, 4), "node_id", 6),
    (InjectAt(5, 4, b"wire"), "wire", b"other"),
    (CostRow(10, 2, 10, 10, 1, 2), "rounds", 3),
]


@pytest.mark.parametrize("value, name, other", VALUE_TYPES,
                         ids=[type(value).__name__ for value, _, _ in VALUE_TYPES])
def test_value_types_are_immutable_and_compare_by_value(value, name, other):
    with pytest.raises(AttributeError):
        setattr(value, name, other)
    twin = type(value)(*value)
    assert twin == value and hash(twin) == hash(value)
    assert value == tuple(value)
    changed = value._replace(**{name: other})
    assert getattr(changed, name) == other
    assert [f for f in value._fields
            if getattr(changed, f) != getattr(value, f)] == [name]


def test_value_type_defaults():
    assert GroupEntry(2, nonce(0xAA), 16).blinded_response is None
    msg = Message(MessageKind.DEL, 2, nonce(0xAA), 5)
    assert msg.entries == () and msg.signature == b""
    assert NodeConfig() == (5 * SECOND, 20 * 60 * SECOND, 3, 20, 100_000,
                            500_000, True)
    assert SimConfig(3) == (3, 0.0, 0, 120 * SECOND, (), None)
    assert (LATENCY_MIN, LATENCY_MAX) == (10_000, 50_000)


def test_vector_file():
    """The checked-in vectors of the three kinds decode to the stated
    fields, re-encode bit-exactly, and verify under the fixture keyring;
    the vectors of the retired kinds are malformed, and so is each kind's
    vector marked ``layout=off``, though its signature is valid."""
    positive, negative, off_layout = [], [], []
    with open(VECTORS) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            hexbytes, *fields = line.split()
            expected = dict(f.split("=") for f in fields)
            if expected["kind"] not in MessageKind.__members__:
                with pytest.raises(MalformedMessage, match="unknown kind byte"):
                    decode(bytes.fromhex(hexbytes), TOY)
                negative.append(expected["kind"])
                continue
            if expected.get("layout") == "off":
                wire = bytes.fromhex(hexbytes)
                msg = reference_decode(wire, TOY)
                assert verify(msg, wire, RING) and not has_layout(msg)
                assert len(msg.entries) == int(expected["entries"])
                with pytest.raises(MalformedMessage, match=LAYOUT_REFUSAL):
                    decode(wire, TOY)
                off_layout.append(expected["kind"])
                continue
            msg = decode(bytes.fromhex(hexbytes), TOY)
            assert msg.kind.name == expected["kind"]
            assert msg.sender_id == int(expected["sender"])
            assert msg.epoch == int(expected["epoch"])
            assert len(msg.entries) == int(expected["entries"])
            assert encode_signed(msg, TOY).hex() == hexbytes
            assert verify(msg, bytes.fromhex(hexbytes), RING)
            positive.append(msg.kind.name)
    assert sorted(positive) == sorted(k.name for k in MessageKind)
    assert sorted(negative) == sorted(RETIRED_KINDS)
    assert sorted(off_layout) == sorted(k.name for k in MessageKind)


# -- one layout per kind ----------------------------------------------------------

#: Each layout refusal, on one validly signed TOY message: the message, and
#: the text ``decode`` refuses its wire with.
OFF_LAYOUT = [
    (Message(MessageKind.IREPLY, 2, nonce(0xAA), 4,
             (GroupEntry(2, nonce(0xAA), 16), GroupEntry(2, nonce(0xAB), 9))),
     "IREPLY: entry_count must be 1"),
    (Message(MessageKind.IREPLY, 2, nonce(0xAA), 4),
     "IREPLY: entry_count must be 1"),
    (Message(MessageKind.IREPLY, 2, nonce(0xAA), 4,
             (GroupEntry(2, nonce(0xAA), 16, 2),)),
     "IREPLY.entries[0]: has_response must be 0"),
    (Message(MessageKind.IGROUP, 1, nonce(0x11), 8,
             (GroupEntry(2, nonce(0xAA), 16, 2), GroupEntry(4, nonce(0xBB), 9))),
     "IGROUP.entries[1]: has_response must be 1"),
    (Message(MessageKind.DEL, 2, nonce(0xAA), 6,
             (GroupEntry(2, nonce(0xAA), 16),)),
     "DEL: entry_count must be 0"),
]
LAYOUT_REFUSAL = "|".join(f"^{re.escape(text)}$" for _, text in OFF_LAYOUT)


@pytest.mark.parametrize("msg, text", OFF_LAYOUT, ids=[
    "ireply_two_entries", "ireply_no_entry", "ireply_response",
    "igroup_unanswered", "del_entry"])
def test_off_layout_refusal_text(msg, text):
    """A validly signed wire in a layout no honest sender writes is
    refused with the text naming its first departure from the layout."""
    wire = encode_signed(sign(msg, RING, TOY), TOY)
    assert verify(reference_decode(wire, TOY), wire, RING)
    with pytest.raises(MalformedMessage) as refused:
        decode(wire, TOY)
    assert str(refused.value) == text


def test_trailer_refusal_text():
    """A wire cut before its signature length, or one whose signature
    length does not end it, is refused with the text naming that."""
    msg = sign(build_igroup(1, nonce(0x11), 1, [GroupEntry(2, nonce(0xAA), 16, 2)]),
               RING, TOY)
    wire = encode_signed(msg, TOY)
    cut_at = len(wire) - 2 - len(msg.signature) - 1
    for data, text in ((wire[:31], "truncated message"),
                       (wire[:cut_at], "truncated message"),
                       (wire + b"\0", "signature length mismatch"),
                       (wire[:-1], "signature length mismatch")):
        with pytest.raises(MalformedMessage) as refused:
            decode(data, TOY)
        assert str(refused.value) == text


#: Each grammar refusal, on one validly signed TOY message laid out as its
#: kind's: the message, and the text both ``decode`` and ``validate_shape``
#: give.
GRAMMAR = [
    (Message(MessageKind.IREPLY, 2, nonce(0xAA), 4,
             (GroupEntry(3, nonce(0xAA), 16),)),
     "IREPLY.entries[0].participant_id"),
    (Message(MessageKind.IGROUP, 1, nonce(0x11), 8,
             (GroupEntry(2, nonce(0xAA), 16, 2), GroupEntry(1, nonce(0xBB), 9, 3))),
     "IGROUP.entries[1].participant_id"),
    (Message(MessageKind.IGROUP, 1, nonce(0x11), 8,
             (GroupEntry(2, nonce(0xAA), 16, 2), GroupEntry(4, nonce(0xBB), 9, 3),
              GroupEntry(2, nonce(0xCC), 13, 6))),
     "IGROUP.entries[2]: duplicate id"),
]


@pytest.mark.parametrize("msg, text", GRAMMAR, ids=[
    "ireply_foreign_entry", "igroup_names_sender", "igroup_repeats_id"])
def test_grammar_refusal_text(msg, text):
    """A validly signed wire in its kind's layout whose entries break the
    grammar does not decode, and is refused with the text the builders'
    guard gives the same message."""
    wire = encode_signed(sign(msg, RING, TOY), TOY)
    assert verify(reference_decode(wire, TOY), wire, RING)
    with pytest.raises(MalformedMessage) as refused:
        decode(wire, TOY)
    assert str(refused.value) == text
    with pytest.raises(ShapeViolation) as guarded:
        validate_shape(msg)
    assert str(guarded.value) == text


# -- decode against the previous implementation ---------------------------------

_HEADER_LEN = 31


def reference_decode(data: bytes, params) -> Message:
    """The decoder this module replaced, kept verbatim as a reference:
    memoryview slices, one ``decode_element`` per element."""
    view = memoryview(data)
    if len(view) < _HEADER_LEN:
        raise MalformedMessage("truncated header")
    try:
        kind = MessageKind(view[0])
    except ValueError:
        raise MalformedMessage(f"unknown kind byte {view[0]:#04x}") from None
    sender_id = int.from_bytes(view[1:5], "big")
    sender_nonce = bytes(view[5:21])
    epoch = int.from_bytes(view[21:29], "big")
    count = int.from_bytes(view[29:31], "big")
    width = params.element_width
    pos = _HEADER_LEN
    entries = []
    for _ in range(count):
        if len(view) < pos + 4 + NONCE_LEN + 1:
            raise MalformedMessage("truncated entry")
        pid = int.from_bytes(view[pos:pos + 4], "big")
        pos += 4
        nonce = bytes(view[pos:pos + NONCE_LEN])
        pos += NONCE_LEN
        has_response = view[pos]
        pos += 1
        if has_response not in (0, 1):
            raise MalformedMessage("bad has_response flag")
        need = width * (1 + has_response)
        if len(view) < pos + need:
            raise MalformedMessage("truncated entry elements")
        try:
            blinded = decode_element(bytes(view[pos:pos + width]), params)
            pos += width
            response = None
            if has_response:
                response = decode_element(bytes(view[pos:pos + width]), params)
                pos += width
        except (BadLength, NotInSubgroup) as exc:
            raise MalformedMessage(f"bad group element: {exc}") from None
        entries.append(GroupEntry(pid, nonce, blinded, response))
    if len(view) < pos + 2:
        raise MalformedMessage("truncated signature length")
    sig_len = int.from_bytes(view[pos:pos + 2], "big")
    pos += 2
    if len(view) != pos + sig_len:
        raise MalformedMessage("signature length mismatch")
    signature = bytes(view[pos:pos + sig_len])
    return Message(kind, sender_id, sender_nonce, epoch, tuple(entries), signature)


def outcome(decoder, wire: bytes, params):
    """The decoded message, or the text of the MalformedMessage raised."""
    try:
        return decoder(wire, params)
    except MalformedMessage as exc:
        return f"malformed: {exc}"


#: The reference's refusals that ``decode`` must word the same way.
SAME_TEXT = ("malformed: truncated header", "malformed: unknown kind byte")


def assert_decodes_like_reference(wire: bytes, params) -> None:
    """``decode`` returns the reference's message where that message has
    its kind's layout and an entry grammar ``validate_shape`` accepts, and
    refuses every other wire as malformed: with the reference's text for a
    short header or an unknown kind byte, and with ``validate_shape``'s for
    a laid-out message that breaks the grammar.  Given the header
    ``read_header`` reads, it does exactly the same."""
    got = outcome(decode, wire, params)
    want = outcome(reference_decode, wire, params)
    if isinstance(want, Message) and in_grammar(want):
        assert got == want
    else:
        assert isinstance(got, str), (want, got)
        if isinstance(want, str) and want.startswith(SAME_TEXT):
            assert got == want
        if isinstance(want, Message) and has_layout(want):
            with pytest.raises(ShapeViolation) as refused:
                validate_shape(want)
            assert got == f"malformed: {refused.value}"
    try:
        header = read_header(wire)
    except MalformedMessage as exc:
        assert got == f"malformed: {exc}"
    else:
        assert outcome(functools.partial(decode, header=header),
                       wire, params) == got
    if isinstance(got, Message):
        # a plain tuple would compare equal: the types are checked apart
        assert type(got) is Message
        assert all(type(e) is GroupEntry for e in got.entries)
        assert type(got.sender_nonce) is bytes and type(got.signature) is bytes
        assert all(type(e.nonce) is bytes for e in got.entries)


#: Values that fit an element field but lie outside the order-q subgroup:
#: zero, the order-2 element p-1, p itself, and the all-ones field.
NON_MEMBERS = {
    TOY: (0, 5, 22, 23, 255),
    PROD: (0, PROD.modulus - 1, PROD.modulus, 2 ** 1024 - 1),
}
UNKNOWN_KINDS = [b for b in range(256) if b not in {int(k) for k in MessageKind}]


def entry_fields(wire: bytes, params) -> tuple[list[int], list[int], int]:
    """Offsets of each entry's has_response byte, of each element field
    and of the signature length in a wire that decodes."""
    width = params.element_width
    flags, elements, pos = [], [], _HEADER_LEN
    for _ in range(int.from_bytes(wire[29:31], "big")):
        flag = pos + 4 + NONCE_LEN
        flags.append(flag)
        pos = flag + 1
        for _ in range(1 + wire[flag]):
            elements.append(pos)
            pos += width
    return flags, elements, pos


def with_byte(wire: bytes, offset: int, value: int) -> bytes:
    return wire[:offset] + bytes([value]) + wire[offset + 1:]


def with_element(wire: bytes, offset: int, value: int, params) -> bytes:
    width = params.element_width
    return wire[:offset] + value.to_bytes(width, "big") + wire[offset + width:]


def with_u16(wire: bytes, offset: int, value: int) -> bytes:
    return wire[:offset] + value.to_bytes(2, "big") + wire[offset + 2:]


def mutants(wire: bytes, params):
    """Every hostile variant of one decodable wire the equivalence covers,
    except single-byte values beyond a one-bit flip (the property draws
    those)."""
    flags, elements, sig_len_at = entry_fields(wire, params)
    count = int.from_bytes(wire[29:31], "big")
    sig_len = int.from_bytes(wire[sig_len_at:sig_len_at + 2], "big")
    yield wire
    for cut in range(len(wire)):
        yield wire[:cut]
    for extra in (0x00, 0xFF):
        yield wire + bytes([extra])
    for offset in range(len(wire)):
        yield with_byte(wire, offset, wire[offset] ^ 0x01)
    for value in (0, count + 1):
        if value != count:
            yield with_u16(wire, 29, value)
    for value in (sig_len - 1, sig_len + 1):
        if 0 <= value <= 0xFFFF:
            yield with_u16(wire, sig_len_at, value)
    for kind in UNKNOWN_KINDS:
        yield with_byte(wire, 0, kind)
    for flag in flags:
        for value in range(2, 256):
            yield with_byte(wire, flag, value)
    for offset in elements:
        for value in NON_MEMBERS[params]:
            yield with_element(wire, offset, value, params)


@functools.lru_cache(maxsize=1)
def fixed_wires() -> tuple[tuple[bytes, object], ...]:
    """The checked-in vectors and the adversarial corpus's wires (TOY and
    PROD) that decode."""
    import adversarial_corpus

    with open(VECTORS) as fh:
        wires = [(bytes.fromhex(line.split()[0]), TOY) for line in fh
                 if line.strip() and not line.startswith("#")]
    wires += [(o.wire, o.params) for o in adversarial_corpus.run_corpus().values()]
    return tuple((w, p) for w, p in dict.fromkeys(wires)
                 if isinstance(outcome(reference_decode, w, p), Message))


def test_decode_matches_reference_on_fixed_wires():
    """Honest corpus and vector wires, and every mutant of each: truncated
    at every offset, one byte longer, one bit flipped at every offset, an
    entry count of 0 or one more, the signature length off by one, every
    unknown kind byte, has_response 2-255 in each entry, a non-member in
    each element."""
    params_seen = set()
    for wire, params in fixed_wires():
        params_seen.add(params)
        for mutant in mutants(wire, params):
            assert_decodes_like_reference(mutant, params)
    assert params_seen == {TOY, PROD}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decode_matches_reference(data):
    """On TOY and PROD: a wire in its kind's layout or in any other, or
    one mutation of it, decodes to the reference decoder's message where
    that message has its kind's layout, and is malformed otherwise."""
    params = data.draw(st.sampled_from([TOY, PROD]))
    laid_out = data.draw(st.booleans())
    wire = encode_signed(data.draw(messages_of(params, laid_out)), params)
    flags, elements, _ = entry_fields(wire, params)
    mutation = data.draw(st.sampled_from(
        ["honest", "truncate", "byte", "kind", "flag", "element"]))
    if mutation == "truncate":
        wire = wire[:data.draw(st.integers(0, len(wire) - 1))]
    elif mutation == "byte":
        wire = with_byte(wire, data.draw(st.integers(0, len(wire) - 1)),
                         data.draw(st.integers(0, 255)))
    elif mutation == "kind":
        wire = with_byte(wire, 0, data.draw(st.sampled_from(UNKNOWN_KINDS)))
    elif mutation == "flag" and flags:
        wire = with_byte(wire, data.draw(st.sampled_from(flags)),
                         data.draw(st.integers(2, 255)))
    elif mutation == "element" and elements:
        wire = with_element(wire, data.draw(st.sampled_from(elements)),
                            data.draw(st.sampled_from(NON_MEMBERS[params])),
                            params)
    assert_decodes_like_reference(wire, params)


# -- the bulk announcement path -----------------------------------------------


def announcement(params, count: int) -> bytes:
    """A signed IGROUP wire of ``count`` entries whose elements are powers
    of the generator, so each is known once computed."""
    rng = random.Random(f"announcement/{params.name}/{count}")

    def element():
        return exp(params.generator, random_scalar(rng, params), params)

    entries = [GroupEntry(pid, rng.randbytes(16), element(), element())
               for pid in range(2, count + 2)]
    msg = build_igroup(1, rng.randbytes(16), count, entries)
    return sign_and_encode(msg, RING, params)[1]


#: TOY announcements of 1 to 40 entries and one PROD announcement of 99,
#: with the stride that samples each one's mutants.
BULK_CASES = [(TOY, count, 11) for count in range(1, 41)] + [(PROD, 99, 53)]


@pytest.mark.parametrize("memo", ["warm", "cold"])
def test_bulk_decode_matches_reference(memo, monkeypatch):
    """Honest announcements and a sample of their mutants decode like the
    reference, with the memo warm (one ``all_known`` query vouches for an
    honest wire) and emptied before every decode (every element meets
    ``is_element``)."""
    if memo == "cold":
        for params in (TOY, PROD):
            monkeypatch.setattr(params, "known", set())

    def forget():
        if memo == "cold":
            TOY.known.clear()
            PROD.known.clear()

    for params, count, stride in BULK_CASES:
        wire = announcement(params, count)
        forget()
        msg = decode(wire, params)
        assert msg == reference_decode(wire, params)
        # a plain tuple would compare equal: the type is checked apart
        assert all(type(e) is GroupEntry for e in msg.entries)
        for mutant in itertools.islice(mutants(wire, params), 0, None, stride):
            forget()
            assert_decodes_like_reference(mutant, params)


@pytest.mark.parametrize("params, count", [(TOY, c) for c in (0, 1, 2, 29)]
                         + [(PROD, 1), (PROD, 99)],
                         ids=lambda v: getattr(v, "name", v))
def test_announced_fields_are_the_response_encodings(params, count):
    """An accepted announcement's ``fields`` column holds each entry's
    response encoded as the wire carries it: the bytes at that entry's
    response offset, in entry order."""
    wire = announcement(params, count)
    entries = decode(wire, params).entries
    width = params.element_width
    assert entries.fields == tuple(
        e.blinded_response.to_bytes(width, "big") for e in entries)
    _, elements, _ = entry_fields(wire, params)
    assert entries.fields == tuple(wire[at:at + width] for at in elements[1::2])


@pytest.mark.parametrize("memo", ["warm", "cold"])
@pytest.mark.parametrize("params, count", [(TOY, c) for c in (0, 1, 2, 29)]
                         + [(PROD, 1), (PROD, 99)],
                         ids=lambda v: getattr(v, "name", v))
def test_announced_entries_read_as_the_entries_tuple(params, count, memo,
                                                     monkeypatch):
    """An accepted announcement's entries, held as columns, read as the
    tuple of GroupEntry the reference decoder builds, whether the memo
    vouched for the elements or each met ``is_element``."""
    wire = announcement(params, count)
    if memo == "cold":
        monkeypatch.setattr(params, "known", set())
    msg = decode(wire, params)
    reference = reference_decode(wire, params)
    entries, expected = msg.entries, reference.entries
    assert type(entries) is messages.AnnouncedEntries
    assert len(entries) == count
    assert [type(e) for e in entries] == [GroupEntry] * count
    for i in range(-count, count):
        assert entries[i] == expected[i] and type(entries[i]) is GroupEntry
    for i in (count, -count - 1):
        with pytest.raises(IndexError):
            entries[i]
    for cut in (slice(None), slice(1, None), slice(None, -1), slice(-2, None),
                slice(None, None, 2), slice(None, None, -1), slice(3, 1)):
        got = entries[cut]
        assert type(got) is tuple and got == expected[cut]
        assert all(type(e) is GroupEntry for e in got)
    assert entries == expected and expected == entries
    assert not entries != expected and not expected != entries
    assert hash(entries) == hash(expected) and repr(entries) == repr(expected)
    assert entries == decode(wire, params).entries
    extra = GroupEntry(count + 2, bytes(16), params.generator, params.generator)
    assert entries != expected + (extra,) and entries != expected[:-1] + (extra,)
    assert entries != list(expected)
    assert tuple(entries) + (extra,) == expected + (extra,)
    assert entries + (extra,) == expected + (extra,)
    assert (extra,) + entries == (extra,) + expected
    assert msg == reference and reference == msg and hash(msg) == hash(reference)
    with pytest.raises(AttributeError):
        entries.ids = ()


@pytest.mark.parametrize("params", [TOY, PROD], ids=lambda p: p.name)
def test_hostile_count_builds_no_layout(params):
    """A validly signed announcement whose count claims 65,535 entries
    but which holds two is malformed, and the cache of per-count layouts
    builds and keeps none for it."""
    wire = announcement(params, 2)
    canonical = wire[:len(wire) - 2 - 32]
    hostile = canonical[:29] + b"\xff\xff" + canonical[31:]
    signature = RING.sign(1, hostile)
    hostile += len(signature).to_bytes(2, "big") + signature
    before = messages._announced_entries.cache_info()
    with pytest.raises(MalformedMessage):
        decode(hostile, params)
    after = messages._announced_entries.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def test_cold_announcement_checks_each_element_in_entry_order(monkeypatch):
    """The path of a device that knows none of its leader's elements: an
    m = 99 PROD announcement decodes as it does warm, with one
    ``is_element`` per element, each entry's blinded secret before its
    response; a non-member planted at entry k is the value refused, ahead
    of one planted later."""
    wire = announcement(PROD, 99)
    warm = decode(wire, PROD)
    in_order = [value for e in warm.entries
                for value in (e.blinded_secret, e.blinded_response)]
    _, elements, _ = entry_fields(wire, PROD)
    monkeypatch.setattr(PROD, "known", set())
    tested = []
    real = messages.is_element
    monkeypatch.setattr(messages, "is_element",
                        lambda value, params: tested.append(value) or real(value, params))
    assert decode(wire, PROD) == warm
    assert tested == in_order
    p = PROD.modulus
    for k in (0, 1, 50, 97):
        for field in (0, 1):
            at = 2 * k + field
            planted = with_element(wire, elements[at], p - 1, PROD)
            planted = with_element(planted, elements[-1], p - in_order[-1], PROD)
            PROD.known.clear()
            tested.clear()
            with pytest.raises(MalformedMessage,
                               match=f"^bad group element: {p - 1} is not"):
                decode(planted, PROD)
            assert tested == in_order[:at] + [p - 1]


def test_warm_announcement_pays_no_membership_test(monkeypatch):
    """An honest m = 30 PROD announcement whose elements are known decodes
    without one ``is_element`` or subgroup check, and so does an IREPLY
    whose element is known: its field is looked up as the wire carries
    it.  With the memo emptied, the IREPLY takes one ``is_element`` for
    its one element."""
    wire = announcement(PROD, 30)
    blinded = exp(PROD.generator, 12345, PROD)
    reply = sign_and_encode(build_ireply(2, nonce(0xAA), 1, GroupEntry(
        2, nonce(0xAA), blinded, None)), RING, PROD)[1]
    tested = []
    real = messages.is_element
    monkeypatch.setattr(messages, "is_element",
                        lambda value, params: tested.append(value) or real(value, params))

    def checks():
        info = _in_subgroup.cache_info()
        return info.hits + info.misses

    before = checks()
    msg = decode(wire, PROD)
    assert len(msg.entries) == 30 and tested == [] and checks() == before
    assert decode(reply, PROD).entries[0].blinded_secret == blinded
    assert tested == [] and checks() == before
    monkeypatch.setattr(PROD, "known", set())
    assert decode(reply, PROD).entries[0].blinded_secret == blinded
    assert tested == [blinded] and checks() == before + 1


class TestHeader:
    def test_reads_kind_sender_and_epoch_alone(self):
        """The header is read from its 31 bytes, whatever follows."""
        msg = build_igroup(7, nonce(0x11), 2**40 + 3,
                           [GroupEntry(2, nonce(0xAA), 16, 2)])
        wire = encode_signed(sign(msg, RING, TOY), TOY)
        assert read_header(wire) == (MessageKind.IGROUP, 7, 2**40 + 3)
        assert read_header(wire[:31]) == read_header(wire)
        assert read_header(with_byte(wire, 31 + 4 + 16, 9)) == read_header(wire)


# -- the struct-packed encoder and the IREPLY exact-layout decode ---------------


def reference_encode(msg: Message, params) -> bytes:
    """The field-at-a-time encoder the packed one replaced, kept as a
    reference: the same field checks, then one ``bytearray`` append per
    field."""
    messages._check_fields(msg)
    out = bytearray()
    out.append(int(msg.kind))
    out += msg.sender_id.to_bytes(4, "big")
    out += msg.sender_nonce
    out += msg.epoch.to_bytes(8, "big")
    out += len(msg.entries).to_bytes(2, "big")
    for e in msg.entries:
        out += e.participant_id.to_bytes(4, "big")
        out += e.nonce
        out.append(1 if e.blinded_response is not None else 0)
        out += encode_element(e.blinded_secret, params)
        if e.blinded_response is not None:
            out += encode_element(e.blinded_response, params)
    return bytes(out)


def codec_outcome(codec, data, params):
    """What ``codec`` makes of ``data``: its result, or the type and text
    of whatever it raised."""
    try:
        return codec(data, params)
    except Exception as exc:  # noqa: BLE001 - the type is compared too
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_encode_matches_reference_encoder(data):
    """On TOY and PROD, every kind: the packed encoder returns the
    reference's bytes, or raises what it raises for a non-member element
    or an id the wire cannot carry."""
    params = data.draw(st.sampled_from([TOY, PROD]))
    msg = data.draw(messages_of(params))
    if msg.entries and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(msg.entries) - 1))
        bad = data.draw(st.one_of(st.sampled_from(NON_MEMBERS[params]),
                                  st.just(2 ** 32), st.just(-1)))
        field = data.draw(st.sampled_from(["blinded_secret", "participant_id"]))
        entries = list(msg.entries)
        entries[i] = entries[i]._replace(**{field: bad})
        msg = msg._replace(entries=tuple(entries))
    assert codec_outcome(encode_canonical, msg, params) == \
        codec_outcome(reference_encode, msg, params)


def reply_wire(params, sender: int, signature: bytes, seed: int = 0) -> bytes:
    """A signed-form IREPLY: one entry without a response."""
    rng = random.Random(f"reply/{params.name}/{seed}")
    blinded = exp(params.generator, random_scalar(rng, params), params)
    msg = Message(MessageKind.IREPLY, sender, rng.randbytes(16), seed,
                  (GroupEntry(sender, rng.randbytes(16), blinded, None),),
                  signature)
    return encode_signed(msg, params)


@pytest.mark.parametrize("params", [TOY, PROD], ids=["TOY", "PROD"])
@pytest.mark.parametrize("sig_len", [0, 1, 32])
def test_reply_decode_matches_reference_on_every_mutant(params, sig_len):
    """The exact-layout IREPLY path, on every mutant of a reply: among
    them truncated, one byte longer, has_response 1, an entry count of 0
    or 2, a non-member element and the signature length off by one."""
    for mutant in mutants(reply_wire(params, 2, bytes(range(sig_len))), params):
        assert_decodes_like_reference(mutant, params)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reply_decode_matches_reference(data):
    """On TOY and PROD, an IREPLY of any sender, nonce, element and
    signature, or one of its mutants, decodes to the same message as the
    reference entry loop or fails with the same error."""
    params = data.draw(st.sampled_from([TOY, PROD]))
    wire = reply_wire(params, data.draw(st.integers(0, 2**32 - 1)),
                      data.draw(st.binary(max_size=40)),
                      data.draw(st.integers(0, 2**16)))
    assert_decodes_like_reference(
        data.draw(st.sampled_from(list(mutants(wire, params)))), params)


# -- an IREPLY decoded against a registered wire -------------------------------


def memo_of(wire: bytes, params) -> tuple[bytes, GroupEntry]:
    """What a leader holds for a registered share: the wire and its entry."""
    return wire, decode(wire, params).entries[0]


def assert_decodes_like_without_memo(wire: bytes, memo, params) -> None:
    """``decode`` with ``memo`` returns the message, or raises the refusal,
    that it does without, and a message of the same types."""
    got = outcome(functools.partial(decode, memo=memo), wire, params)
    assert got == outcome(decode, wire, params)
    if isinstance(got, Message):
        assert type(got) is Message and type(got.entries[0]) is GroupEntry
        assert type(got.sender_nonce) is bytes and type(got.signature) is bytes


@pytest.mark.parametrize("params", [TOY, PROD], ids=["TOY", "PROD"])
def test_reply_decode_with_memo_matches_without_on_every_mutant(params):
    """Every mutant of a registered reply, its nonce and epoch bytes among
    them, decodes with the reply as memo as it does without; so does every
    mutant of another sender's reply of the same length."""
    wire = reply_wire(params, 2, bytes(range(32)))
    memo = memo_of(wire, params)
    other = reply_wire(params, 3, bytes(range(32)), seed=1)
    for mutant in itertools.chain(mutants(wire, params), mutants(other, params)):
        assert_decodes_like_without_memo(mutant, memo, params)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reply_decode_with_memo_matches_without(data):
    """On TOY and PROD, a registered reply re-signed under any nonce and
    epoch, or a mutant of it, decodes with the registered wire as memo as
    it does without."""
    params = data.draw(st.sampled_from([TOY, PROD]))
    sender = data.draw(st.integers(0, 2**32 - 1))
    signature = data.draw(st.binary(max_size=40))
    wire = reply_wire(params, sender, signature, data.draw(st.integers(0, 2**16)))
    refresh = (wire[:5] + data.draw(st.binary(min_size=16, max_size=16))
               + data.draw(st.integers(0, 2**64 - 1)).to_bytes(8, "big")
               + wire[29:len(wire) - len(signature)]
               + data.draw(st.binary(min_size=len(signature),
                                     max_size=len(signature))))
    assert_decodes_like_without_memo(
        data.draw(st.sampled_from(list(mutants(refresh, params)))),
        memo_of(wire, params), params)


def test_reply_decode_with_memo_converts_and_tests_no_element(monkeypatch):
    """A refresh of a registered reply decodes to the registered entry
    itself, with no membership test."""
    wire = reply_wire(PROD, 2, bytes(32))
    memo = memo_of(wire, PROD)
    refresh = wire[:21] + (7).to_bytes(8, "big") + wire[29:]
    tested = []
    monkeypatch.setattr(messages, "is_element",
                        lambda *args: tested.append(args) or True)
    msg = decode(refresh, PROD, memo=memo)
    assert msg.entries[0] is memo[1] and msg.epoch == 7 and not tested
