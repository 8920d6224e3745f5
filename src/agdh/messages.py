"""The three protocol message kinds with canonical encoding and signatures.

A leader broadcasts IGROUP (the group announcement, carrying every member's
contribution and the leader's response to it), a member answers with IREPLY
(its own contribution), and a member leaving gracefully sends DEL.  Any other
kind byte is malformed.

Wire layout (big-endian throughout), signature excluded:

    [kind:1][sender_id:4][sender_nonce:16][epoch:8][entry_count:2][entries...]

and each entry:

    [id:4][nonce:16][has_response:1][blinded_secret:W][blinded_response:W]

where W is the parameter set's element width and the response field is
present only when has_response is 1.  The signed wire form appends
[sig_len:2][signature].  The encoding is injective over valid messages, so
signing the canonical bytes covers every field.

Each kind has the one layout its honest sender writes, and only that
layout decodes: an IREPLY holds exactly one entry, without a response; an
IGROUP holds ``entry_count`` entries, each with a response; a DEL holds no
entries.  The encoder still writes any layout, so a test can build the
wires a receiver must refuse.

The fixed parts have precompiled ``struct`` layouts.  :func:`encode_canonical`
first checks every field the layout cannot carry as given (a kind that is
no :class:`MessageKind`, an id, epoch or count out of range, a nonce that
is not 16 ``bytes``), then packs the header and each entry's fixed part,
has each element encoded by ``encode_element`` with its membership check,
and joins the parts once.

The ``epoch`` field carries the group key epoch on leader announcements and a
per-sender monotone send counter on member messages; either way a stale value
is detectable and replays can be rejected.  A member's keepalive repeats its
last IREPLY under the next counter: :func:`resign` rewrites that one field of
the last wire and signs again, with no other check or encoding.

A receiver takes each wire through these steps, cheapest refusal first:

1. header triage: :func:`read_header` reads kind, sender and epoch from the
   fixed header with one ``struct`` unpack, and the node refuses an
   announcement that is not its own but comes from a leader it would not
   follow (``stale_epoch``, ``larger_leader``) before anything else is
   parsed or checked;
2. :func:`decode`, given that header, which refuses any wire that is not
   its kind's one layout or breaks its entry grammar (an IREPLY entry not
   its sender's own; an IGROUP naming a participant twice, or its sender),
   then tests each element: an IREPLY's one with one ``is_element``; an
   announcement's with one batched query that, when every element is
   known to the process (``group_arith``'s per-group memo), vouches for
   all with no subgroup check, else one by one in entry order, reporting
   the first non-member.  An accepted announcement's entries are the
   columns of the one unpack that read them (:class:`AnnouncedEntries`),
   the responses' wire encodings among them, so a member finds its own
   entry and folds the key without building an entry or unpacking the
   wire again.  A leader passes the wire a member's share was
   registered from as a memo: an IREPLY of the same length and the same
   bytes from its entry count through its signature length decodes to the
   registered entry with one bytes comparison;
3. :func:`verify`, the signature over the received bytes;
4. the state machine's own checks.

Triage trusts fields no signature has yet covered, which is safe because
it can only refuse: a refusal changes no state, so a forged header can get
only its own wire refused, and a wire that passes triage still meets every
later check.  A triaged announcement reports the header's reason even if
its body is malformed or badly signed.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from collections.abc import Sequence
from enum import IntEnum
from functools import lru_cache, partial
from itertools import chain
from typing import NamedTuple

from .errors import MalformedMessage, ShapeViolation, UnknownParticipant
from .gka_core import NONCE_LEN, GroupEntry
from .group_arith import (
    GroupParams,
    all_known,
    encode_element,
    is_element,
)


class MessageKind(IntEnum):
    IREPLY = 0x02
    IGROUP = 0x03
    DEL = 0x07


#: The header: kind, sender_id, sender_nonce, epoch, entry_count.
_HEADER = struct.Struct(f">BI{NONCE_LEN}sQH")
_HEADER_LEN = _HEADER.size
#: Where the entry count starts: the IREPLY layout is read from there.
_COUNT_AT = _HEADER_LEN - 2
#: The epoch field, which :func:`resign` rewrites, and where it starts.
_EPOCH = struct.Struct(">Q")
_EPOCH_AT = 5 + NONCE_LEN
#: The header fields triage reads: kind, sender_id and epoch.
_TRIAGE = struct.Struct(f">BI{NONCE_LEN}xQ")
#: An entry's fixed part: id, nonce, has_response.
_ENTRY = struct.Struct(f">I{NONCE_LEN}sB")
#: Where the first entry's has_response byte lies.
_FLAG_AT = _HEADER_LEN + _ENTRY.size - 1
_KINDS = {int(kind): kind for kind in MessageKind}
_IGROUP = MessageKind.IGROUP
_IREPLY = MessageKind.IREPLY
#: Largest participant id: ids travel as 4-byte unsigned wire fields.
MAX_ID = 2**32 - 1
_MAX_EPOCH = 2**64 - 1


class Message(NamedTuple):
    """One decoded or built message; a named tuple, so it is immutable,
    hashable and equal to a plain tuple of the same values.  A built
    message's ``entries`` is a tuple of GroupEntry; a decoded
    announcement's is :class:`AnnouncedEntries`, which reads as one."""

    kind: MessageKind
    sender_id: int
    sender_nonce: bytes
    epoch: int
    entries: Sequence[GroupEntry] = ()
    signature: bytes = b""


class HmacKeyRing:
    """Per-participant long-term keys with signature create/verify.

    The default scheme is HMAC-SHA256 over the canonical bytes with one
    symmetric key per node: deterministic and fast, which is what protocol
    logic testing needs.  Any object with the same ``sign``/``verify``
    surface (e.g. a real asymmetric scheme) can replace it.
    """

    def __init__(self, keys: dict[int, bytes]):
        self._keys = dict(keys)

    @classmethod
    def provision(cls, ids, master: bytes | str = b"agdh-test-keyring") -> "HmacKeyRing":
        """Derive one long-term key per participant id from a master seed."""
        if isinstance(master, str):
            master = master.encode()
        keys = {
            pid: hashlib.sha256(master + b"/" + pid.to_bytes(4, "big")).digest()
            for pid in ids
        }
        return cls(keys)

    def sign(self, sender_id: int, data: bytes) -> bytes:
        key = self._keys.get(sender_id)
        if key is None:
            raise UnknownParticipant(f"no key provisioned for {sender_id}")
        return hmac.new(key, data, hashlib.sha256).digest()

    def verify(self, sender_id: int, data: bytes, signature: bytes) -> bool:
        key = self._keys.get(sender_id)
        if key is None:
            return False
        expected = hmac.new(key, data, hashlib.sha256).digest()
        return hmac.compare_digest(expected, signature)


def _check_fields(msg: Message) -> None:
    """Refuse any field the wire layout cannot carry as given; ``struct``
    would pad or cut a nonce of another length, and its own errors would
    name no field."""
    if not isinstance(msg.kind, MessageKind):
        raise ShapeViolation("kind")
    if not 0 <= msg.sender_id <= MAX_ID:
        raise ShapeViolation("sender_id")
    if not isinstance(msg.sender_nonce, bytes) or len(msg.sender_nonce) != NONCE_LEN:
        raise ShapeViolation("sender_nonce")
    if not 0 <= msg.epoch <= _MAX_EPOCH:
        raise ShapeViolation("epoch")
    if len(msg.entries) > 0xFFFF:
        raise ShapeViolation("entries")
    for i, e in enumerate(msg.entries):
        if not 0 <= e.participant_id <= MAX_ID:
            raise ShapeViolation(f"entries[{i}].participant_id")
        if not isinstance(e.nonce, bytes) or len(e.nonce) != NONCE_LEN:
            raise ShapeViolation(f"entries[{i}].nonce")


def encode_canonical(msg: Message, params: GroupParams) -> bytes:
    """Deterministic signature-less encoding; injective over valid messages."""
    _check_fields(msg)
    kind, sender_id, sender_nonce, epoch, entries = msg[:5]
    parts = [_HEADER.pack(kind, sender_id, sender_nonce, epoch, len(entries))]
    append, pack_entry = parts.append, _ENTRY.pack
    for participant_id, nonce, blinded, response in entries:
        append(pack_entry(participant_id, nonce, response is not None))
        append(encode_element(blinded, params))
        if response is not None:
            append(encode_element(response, params))
    return b"".join(parts)


def _append_signature(canonical: bytes, signature: bytes) -> bytes:
    if len(signature) > 0xFFFF:
        raise ShapeViolation("signature")
    return canonical + len(signature).to_bytes(2, "big") + signature


def encode_signed(msg: Message, params: GroupParams) -> bytes:
    """Full wire form: canonical bytes, 2-byte signature length, signature."""
    return _append_signature(encode_canonical(msg, params), msg.signature)


def read_header(data: bytes) -> tuple[MessageKind, int, int]:
    """``(kind, sender_id, epoch)`` from the fixed 31-byte header, before
    any entry is parsed; raises MalformedMessage if the wire is shorter
    than a header or its kind byte names no kind.  The fields are
    unauthenticated until the whole wire has been decoded and verified."""
    if len(data) < _HEADER_LEN:
        raise MalformedMessage("truncated header")
    kind_byte, sender_id, epoch = _TRIAGE.unpack_from(data)
    kind = _KINDS.get(kind_byte)
    if kind is None:
        raise MalformedMessage(f"unknown kind byte {kind_byte:#04x}")
    return kind, sender_id, epoch


def decode(data: bytes, params: GroupParams, header=None,
           memo: tuple[bytes, GroupEntry] | None = None) -> Message:
    """Parse a signed wire message laid out as its kind's honest sender
    writes it; checks every length and flag, the entry grammar and the
    subgroup membership of every element, and raises MalformedMessage on
    any defect.  ``data`` must be ``bytes``: the nonces and the signature
    are slices.  ``header`` is ``read_header(data)``, read here if not given.

    An IREPLY is one entry of its sender's, without a response, read with
    one unpack and one :func:`is_element`; an IGROUP is ``entry_count``
    answered entries, decoded in bulk by :func:`_decode_announcement`
    and returned as :class:`AnnouncedEntries` columns; a DEL is the
    header alone.  Any other layout of a known kind is
    malformed, though the encoder writes it: no honest sender does.

    ``memo`` is ``(wire, entry)``: an IREPLY wire this function accepted
    under ``params``, and the entry it decoded from it.  An IREPLY from the
    memo entry's participant, as long as that wire and with the same bytes
    from its entry count through its signature length, decodes to that
    entry, with its own nonce, epoch and signature, and no element is
    converted or tested.  That is sound because every byte this function
    checks on an IREPLY (the layout, the entry grammar ``pid == sender``
    and the element) is then identical to bytes it already accepted from
    this sender.  The bytes that may differ are the header's nonce and
    epoch, which it never checks, and the signature; :func:`verify` and
    the receiver's replay check cover the epoch and the signature
    afterwards.  Any other wire takes the full path."""
    kind, sender_id, epoch = read_header(data) if header is None else header
    if kind is _IGROUP:
        return _decode_announcement(data, sender_id, epoch, params)
    if kind is _IREPLY:
        layout = _reply_body(params.element_width)
        sig_at = _COUNT_AT + layout.size
        if memo is not None:
            registered, entry = memo
            if (len(data) == len(registered) and entry[0] == sender_id
                    and data[_COUNT_AT:sig_at] == registered[_COUNT_AT:sig_at]):
                return _new_message((kind, sender_id, data[5:21], epoch,
                                     (entry,), data[sig_at:]))
        if len(data) >= sig_at:
            count, pid, nonce, has_response, field, sig_len = \
                layout.unpack_from(data, _COUNT_AT)
            if count == 1 and not has_response and len(data) == sig_at + sig_len:
                if pid != sender_id:
                    raise MalformedMessage("IREPLY.entries[0].participant_id")
                blinded = int.from_bytes(field, "big")
                if not is_element(blinded, params):
                    raise _non_member(blinded, params)
                return _new_message((kind, sender_id, data[5:21], epoch,
                                     (_new_entry((pid, nonce, blinded, None)),),
                                     data[sig_at:]))
    elif data[_COUNT_AT:_HEADER_LEN] == b"\0\0":
        sig_at = _HEADER_LEN + 2
        if len(data) == sig_at + int.from_bytes(data[_HEADER_LEN:sig_at], "big"):
            return _new_message((kind, sender_id, data[5:21], epoch, (),
                                 data[sig_at:]))
    raise _refusal(data, kind, params)


# A GroupEntry or Message from a tuple, by the tuple constructor alone:
# _make's length check is skipped, so each caller passes every field.
_new_entry = partial(tuple.__new__, GroupEntry)
_new_message = partial(tuple.__new__, Message)


@lru_cache(maxsize=8)
def _reply_body(width: int) -> struct.Struct:
    """An IREPLY from its entry count to its signature length, for
    elements of ``width`` bytes: count, id, nonce, has_response, blinded
    secret, signature length."""
    return struct.Struct(f">HI{NONCE_LEN}sB{width}sH")


@lru_cache(maxsize=8)
def _announced_entry(width: int) -> struct.Struct:
    """One announcement entry, for elements of ``width`` bytes: id, nonce,
    has_response, blinded secret, response."""
    return struct.Struct(f">I{NONCE_LEN}sB{width}s{width}s")


# The layout below is keyed by an entry count read from the wire.  A
# Struct of the largest count, 65,535, holds about 11 MB, so it is built
# only for a wire whose length has matched its count, and at most 8 are
# kept: an unauthenticated count can cost no more than its own wire.

@lru_cache(maxsize=8)
def _announced_entries(width: int, count: int) -> struct.Struct:
    """``count`` announcement entries back to back: the fields of
    :func:`_announced_entry`, five to an entry, in entry order."""
    return struct.Struct(">" + f"I{NONCE_LEN}sB{width}s{width}s" * count)


class AnnouncedEntries(Sequence):
    """The entries of an IGROUP that :func:`decode` accepted, held as the
    columns its one unpack read: ``ids``, ``nonces``, ``blinded`` and
    ``responses``, the four fields of each :class:`GroupEntry` in entry
    order, and ``fields``, the responses' encodings as the wire carries
    them, each ``element_width`` bytes.  Every column is a tuple, and
    none can be rebound.

    It reads as the tuple of GroupEntry it stands for: ``len``,
    iteration, indexing, slicing (a tuple), ``==``, ``hash``, ``repr``
    and ``+`` with a tuple all act on that tuple, whose entries are built
    only when iterated or indexed.  A receiver reads the columns instead.
    It is no tuple subclass, whose C-level concatenation would join the
    columns rather than the entries."""

    __slots__ = ("ids", "nonces", "blinded", "responses", "fields")

    def __init__(self, ids, nonces, blinded, responses, fields):
        init = object.__setattr__
        init(self, "ids", ids)
        init(self, "nonces", nonces)
        init(self, "blinded", blinded)
        init(self, "responses", responses)
        init(self, "fields", fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return map(_new_entry, zip(self.ids, self.nonces, self.blinded,
                                   self.responses))

    def __getitem__(self, index):
        entry = (self.ids[index], self.nonces[index], self.blinded[index],
                 self.responses[index])
        if isinstance(index, slice):
            return tuple(map(_new_entry, zip(*entry)))
        return _new_entry(entry)

    def __eq__(self, other):
        if isinstance(other, AnnouncedEntries):
            other = tuple(other)
        elif not isinstance(other, tuple):
            return NotImplemented
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __add__(self, other):
        if not isinstance(other, (tuple, AnnouncedEntries)):
            return NotImplemented
        return tuple(self) + tuple(other)

    def __radd__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        return other + tuple(self)


_NO_ENTRIES = AnnouncedEntries((), (), (), (), ())


def _decode_announcement(data: bytes, sender_id: int, epoch: int,
                         params: GroupParams) -> Message:
    """The IGROUP ``data`` holds: exactly ``entry_count`` answered entries,
    no two naming one participant and none the sender, then the signature.

    Once the wire's length matches its count, one unpack of a cached
    layout of ``count`` entries reads every field, and five stride slices
    of it give the ids, nonces, flags, blinded secrets and responses.  One
    set over the ids refuses a repeated or the sender's id (only a refused
    wire meets :func:`validate_shape`, which names its first defect), and
    two comprehensions convert the 2m elements.  One :func:`all_known`
    query, with no subgroup check, vouches for all of them when each is
    already known.  Otherwise they meet :func:`is_element` one by one,
    each entry's blinded secret before its response, so the first
    non-member is the one reported.  The columns, with the response
    fields as read, become the message's :class:`AnnouncedEntries`."""
    count = int.from_bytes(data[_COUNT_AT:_HEADER_LEN], "big")
    width = params.element_width
    end = _HEADER_LEN + count * _announced_entry(width).size
    if len(data) != end + 2 + int.from_bytes(data[end:end + 2], "big"):
        raise _refusal(data, _IGROUP, params)
    if not count:
        return _new_message((_IGROUP, sender_id, data[5:21], epoch,
                             _NO_ENTRIES, data[end + 2:]))
    fields = _announced_entries(width, count).unpack_from(data, _HEADER_LEN)
    ids, nonces, flags, blinds, encoded = (fields[0::5], fields[1::5],
                                           fields[2::5], fields[3::5],
                                           fields[4::5])
    if flags.count(1) != count:
        raise _refusal(data, _IGROUP, params)
    named = set(ids)
    if len(named) != count or sender_id in named:
        try:
            validate_shape(Message(_IGROUP, sender_id, data[5:21], epoch, tuple(
                map(_new_entry, zip(ids, nonces, blinds, encoded))),
                data[end + 2:]))
        except ShapeViolation as exc:
            raise MalformedMessage(str(exc)) from None
    from_bytes = int.from_bytes
    blinded = tuple([from_bytes(field, "big") for field in blinds])
    answered = tuple([from_bytes(field, "big") for field in encoded])
    if not all_known(blinded + answered, params):
        for value in chain.from_iterable(zip(blinded, answered)):
            if not is_element(value, params):
                raise _non_member(value, params)
    return _new_message((_IGROUP, sender_id, data[5:21], epoch,
                         AnnouncedEntries(ids, nonces, blinded, answered,
                                          encoded),
                         data[end + 2:]))


def _refusal(data: bytes, kind: MessageKind, params: GroupParams) -> MalformedMessage:
    """Why a wire of ``kind`` does not fit its kind's layout, naming its
    first departure: a wrong entry count, then the first entry whose
    ``has_response`` byte is not the layout's (each lies at a fixed stride
    after the header, so the entries before it fit), then a wire cut short
    of its signature length, or one that length does not end."""
    count = int.from_bytes(data[_COUNT_AT:_HEADER_LEN], "big")
    if kind is _IREPLY and count != 1:
        return MalformedMessage("IREPLY: entry_count must be 1")
    if kind is MessageKind.DEL and count:
        return MalformedMessage("DEL: entry_count must be 0")
    flag = int(kind is _IGROUP)
    size = _ENTRY.size + params.element_width * (1 + flag)
    end = _HEADER_LEN + count * size
    for i, value in enumerate(data[_FLAG_AT:end:size]):
        if value != flag:
            return MalformedMessage(
                f"{kind.name}.entries[{i}]: has_response must be {flag}")
    if len(data) < end + 2:
        return MalformedMessage("truncated message")
    return MalformedMessage("signature length mismatch")


def _non_member(value: int, params: GroupParams) -> MalformedMessage:
    return MalformedMessage(
        f"bad group element: {value} is not in the subgroup of {params.name!r}")


def sign(msg: Message, keyring, params: GroupParams) -> Message:
    """Return the message with its signature over the canonical bytes."""
    return msg._replace(
        signature=keyring.sign(msg.sender_id, encode_canonical(msg, params)))


def sign_and_encode(msg: Message, keyring,
                    params: GroupParams) -> tuple[Message, bytes]:
    """Sign and serialize with one encoding: (signed message, wire form)."""
    canonical = encode_canonical(msg, params)
    signature = keyring.sign(msg.sender_id, canonical)
    return (_new_message(msg[:5] + (signature,)),
            _append_signature(canonical, signature))


def resign(wire: bytes, epoch: int, keyring,
           params: GroupParams) -> tuple[bytes, bytes]:
    """A signed wire laid out as its kind's honest sender writes it, under
    a new epoch field and signed again: ``(signature, wire)``, the two that
    :func:`sign_and_encode` gives for its message under ``epoch``.  The
    canonical bytes end where the header's kind and entry count put the
    signature length field, so the old signature's length is never
    assumed.  Only the 8-byte epoch field changes, so no other field is
    checked or encoded again.  Raises ShapeViolation("epoch") for an epoch
    the field cannot carry."""
    if not 0 <= epoch <= _MAX_EPOCH:
        raise ShapeViolation("epoch")
    kind, sender_id, _ = _TRIAGE.unpack_from(wire)
    size = _ENTRY.size + params.element_width * (1 + (kind == _IGROUP))
    end = _HEADER_LEN + int.from_bytes(wire[_COUNT_AT:_HEADER_LEN], "big") * size
    canonical = b"".join((wire[:_EPOCH_AT], _EPOCH.pack(epoch),
                          wire[_EPOCH_AT + 8:end]))
    signature = keyring.sign(sender_id, canonical)
    return signature, _append_signature(canonical, signature)


def verify(msg: Message, wire: bytes, keyring) -> bool:
    """True iff the signature verifies under the claimed sender's key.

    ``msg`` is what :func:`decode` returned for ``wire`` (a receiver's
    step 3 of 4).  The signature is checked over the received bytes,
    ``wire`` minus its ``[sig_len][signature]`` trailer, without
    re-encoding: that prefix is exactly ``encode_canonical(msg)`` because
    :func:`decode` accepts only the canonical form of the kind's one
    layout.  Every header field has a fixed width and is re-emitted as
    read; the kind byte must name a kind; ``entry_count`` must be 1 for an
    IREPLY and 0 for a DEL, and an IGROUP holds exactly that many entries;
    ``has_response`` must be 0 in an IREPLY and 1 in an IGROUP, the byte
    the encoder writes for a decoded entry; each element must be exactly
    ``element_width`` bytes and a subgroup member, so it re-encodes to the
    same big-endian bytes; and the signature length must end the wire
    exactly, so nothing trails it."""
    signed = wire[:len(wire) - 2 - len(msg.signature)]
    return keyring.verify(msg.sender_id, signed, msg.signature)


def validate_shape(msg: Message) -> Message:
    """The builders' guard: the entry grammar :func:`decode` enforces on a
    received wire, whose entry count each builder fixes for an IREPLY and
    a DEL; raises ShapeViolation.  :func:`decode` calls it only to name
    the first id defect of an announcement it refuses."""
    if msg.kind is MessageKind.IREPLY:
        entry = msg.entries[0]
        if entry.blinded_response is not None:
            raise ShapeViolation("IREPLY.entries[0].blinded_response")
        if entry.participant_id != msg.sender_id:
            raise ShapeViolation("IREPLY.entries[0].participant_id")
    elif msg.kind is MessageKind.IGROUP:
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


def _build(kind: MessageKind, sender_id: int, sender_nonce: bytes, epoch: int,
           entries=()) -> Message:
    return validate_shape(
        Message(kind, sender_id, sender_nonce, epoch, tuple(entries))
    )


def build_ireply(sender_id: int, sender_nonce: bytes, seq: int,
                 entry: GroupEntry) -> Message:
    return _build(MessageKind.IREPLY, sender_id, sender_nonce, seq, [entry])


def build_igroup(leader_id: int, leader_nonce: bytes, epoch: int,
                 entries) -> Message:
    return _build(MessageKind.IGROUP, leader_id, leader_nonce, epoch, entries)


def build_del(sender_id: int, sender_nonce: bytes, seq: int) -> Message:
    return _build(MessageKind.DEL, sender_id, sender_nonce, seq)
