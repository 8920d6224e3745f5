"""Key-agreement mathematics: blinding, leader responses, recovery, and the
group key itself.

The scheme is asymmetric: each member pays two exponentiations (blind its
secret, recover the leader's blind), while the leader pays one per member
plus one for its own blind.  The shared key is

    key = g^(r_l) * prod(g^(r_i * r_l))  =  g^(r_l * (1 + sum(r_i)))

where r_l is the leader secret and r_i the member secrets.  ``oracle_key``
computes the right-hand side directly in the exponent and exists purely as an
independent check; the protocol paths never call it.  It raises g to that
exponent with a Lim-Lee fixed-base comb (Lim and Lee, CRYPTO '94) in plain
Python ints: six rows, so a table of 64 powers per group, built on the
group's first oracle power and cached for a few groups.  It calls nothing
in ``group_arith``, neither its kernel nor its memo of known elements, so
it shares nothing with the nodes it checks.  On PROD (2-CPU VM, best of 7)
a power costs about 0.28 ms, against about 0.93 ms for builtin ``pow``,
and the table about 0.8 ms once per process.

A share has one type, :class:`GroupEntry`, from the member's draw to the
leader's announcement: the member's ``(id, nonce, g^r_i)`` travels in its
IREPLY with no response, and the leader answers it with ``g^(r_i * r_l)``
in the same type, which the IGROUP then carries.

Both counted exponentiations of a member, the blinding (a power of the
generator) and the recovery of the leader blind, go through
``group_arith``'s one kernel: OpenSSL's constant-time Montgomery
exponentiation where available, builtin ``pow`` otherwise.  On PROD, on a
2-CPU VM, each takes about 0.1 ms on the native kernel and about 0.85 ms
on builtin ``pow``; the same holds for the leader's own blind and its ``m``
responses.  Each counts as one exponentiation.

The paper's cost model treats multiplications as free; at m = 100 they are
not.  A member's key step is therefore 1 counted exponentiation (the
recovery) plus m products, and the leader's fold is one product over
its blind and the m responses.  Both products run on the same kernel as
the powers: Montgomery multiplication on PROD.  The leader's fold passes
ints to ``group_arith.prodmod``; a member's passes only the responses'
encodings as the accepted wire carries them (the ``fields`` column of
``messages.AnnouncedEntries``, read by the decode's one unpack) to
``group_arith.prodmod_encoded``, so no response is turned from bytes into
an int and back, and the width the layout fixed is not checked again.
No product is counted as an exponentiation.  Measured on one m = 99
announcement (PROD, a shared 2-CPU VM, best of 7 x 300 calls), a
member's key step splits into decoding the wire, about 0.025 ms when the
process already knows every element (``messages.decode`` asks the memo,
which is keyed by encoding, about the 198 wire slices themselves, and
converts none); the fold, about 0.11 ms, or 1.1 us per factor; the
recovery, about 0.07 ms; and the signature check, about 0.02 ms.  The
one counted exponentiation is thus about a third of the step, and the
fold about 1.5 times the recovery.  While the memo held ints, the decode
converted all 198 elements to ask it and took about 0.07 ms.

``respond`` and ``recover_leader_blind`` still check that their input is a
subgroup element, because each raises it to a secret: a received value of
small order there would leak that secret modulo the small order (Lim and
Lee, CRYPTO '97).  ``group_arith`` answers the check from its memo of known
elements (powers of the generator and of proven elements), so only a value
that no check or exponentiation in the process has met costs a subgroup
``pow``.  Each encodes its input once, for that check
(``group_arith.element_encoding``), and hands the encoding to ``exp``,
which files the power without looking the input up again.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from functools import lru_cache, partial
from typing import NamedTuple

from .errors import DegenerateKey, NotInSubgroup, ZeroScalar
from .group_arith import (
    ExpCounter,
    GroupElement,
    GroupParams,
    Scalar,
    element_encoding,
    exp,
    prodmod,
    prodmod_encoded,
    scalar_inverse,
)

NONCE_LEN = 16


class GroupEntry(NamedTuple):
    """One participant's share, the only type it has from draw to
    announcement: id, nonce and blinded secret as the member draws it and
    sends it in its IREPLY, and, once the leader has answered it, the
    leader's blinded response, as the IGROUP announces it.

    A named tuple: immutable, hashable, built by ``tuple.__new__`` with no
    per-field ``__setattr__``, and equal to a plain tuple of the same
    values."""

    participant_id: int
    nonce: bytes
    blinded_secret: GroupElement
    blinded_response: GroupElement | None = None


# A GroupEntry from a tuple, by the tuple constructor alone: the named
# tuple's own __new__ is skipped, so each caller passes every field.
_new_entry = partial(tuple.__new__, GroupEntry)


def _check_secret(secret: Scalar, params: GroupParams) -> None:
    if not 1 <= secret <= params.order - 1:
        raise ZeroScalar(f"secret must lie in [1, q-1], got {secret}")


def blind(secret: Scalar, params: GroupParams,
          counter: ExpCounter | None = None) -> GroupElement:
    """g^secret; the public contribution hiding the secret."""
    _check_secret(secret, params)
    return exp(params.generator, secret, params, counter)


def respond(blinded_secret: GroupElement, leader_secret: Scalar,
            params: GroupParams, counter: ExpCounter | None = None) -> GroupElement:
    """Leader side: raise a member's blinded secret to the leader secret."""
    encoded = element_encoding(blinded_secret, params)
    if encoded is None:
        raise NotInSubgroup(f"blinded secret {blinded_secret} not in subgroup")
    _check_secret(leader_secret, params)
    return exp(blinded_secret, leader_secret, params, counter, encoded)


def recover_leader_blind(response: GroupElement, own_secret: Scalar,
                         params: GroupParams,
                         counter: ExpCounter | None = None) -> GroupElement:
    """Member side: strip the own secret off the blinded response.

    (g^(r_i * r_l))^(r_i^-1) = g^(r_l).  One exponentiation plus one scalar
    inversion.
    """
    encoded = element_encoding(response, params)
    if encoded is None:
        raise NotInSubgroup(f"response {response} not in subgroup")
    _check_secret(own_secret, params)
    return exp(response, scalar_inverse(own_secret, params), params, counter,
               encoded)


def compute_key_member(leader_blind: GroupElement,
                       encoded: Sequence[bytes],
                       params: GroupParams) -> GroupElement:
    """Member side: multiply the recovered leader blind with every response.

    One :func:`~agdh.group_arith.prodmod_encoded` over the m responses, no
    exponentiation; with no responses the key is the leader blind itself
    (singleton group).  ``encoded`` holds the announced responses, one
    per member, as an announcement that ``messages.decode`` has accepted
    carries them (its ``entries.fields``): each ``element_width`` bytes,
    which is not checked again, and each a subgroup member.  That decode
    refuses an IGROUP naming a participant twice, so no duplicate check
    is repeated here.  The native kernel folds the encodings as they are;
    builtin ``pow``'s loop converts each.
    """
    return prodmod_encoded(leader_blind, encoded, params)


def compute_key_leader(leader_secret: Scalar,
                       shares: Sequence[GroupEntry],
                       params: GroupParams,
                       counter: ExpCounter | None = None,
                       ) -> tuple[GroupElement, list[GroupEntry]]:
    """Leader side: answer every share and fold the key.

    The leader's own blind, then one response per share in sequence order,
    so it costs exactly len(shares) + 1 exponentiations, then one
    :func:`~agdh.group_arith.prodmod` over the blind and the responses.
    Returns the key and the entries to announce, responses filled in.
    Raises DegenerateKey if the folded key is the identity element, which
    happens exactly when 1 + sum(r_i) = 0 mod q; the caller must drop a
    share and retry rather than ship an identity key.
    """
    leader_blind = blind(leader_secret, params, counter)
    responses = [respond(blinded, leader_secret, params, counter)
                 for _, _, blinded, _ in shares]
    entries = [_new_entry((pid, nonce, blinded, response))
               for (pid, nonce, blinded, _), response in zip(shares, responses)]
    key = prodmod(leader_blind, responses, params)
    if key == 1:
        raise DegenerateKey("group key folded to the identity element")
    return key, entries


def oracle_key(leader_secret: Scalar, member_secrets: list[Scalar],
               params: GroupParams) -> GroupElement:
    """Reference computation in the exponent: g^(r_l * (1 + sum r_i)).

    Independent path used only by tests and the transcript auditor.  It
    computes the power with its own Lim-Lee comb (:func:`_comb_pow`) in
    Python ints, not with :func:`exp`, so the audit checks
    ``group_arith``'s kernel and known-element memo against an
    implementation that shares neither.
    """
    _check_secret(leader_secret, params)
    for s in member_secrets:
        _check_secret(s, params)
    exponent = leader_secret * (1 + sum(member_secrets)) % params.order
    return _comb_pow(exponent, params.generator, params.modulus, params.order)


#: Rows of the oracle's comb; each group's table holds 2^6 = 64 powers.
_COMB_ROWS = 6


@lru_cache(maxsize=4)
def _comb_table(generator: int, modulus: int,
                order: int) -> tuple[int, int, tuple[int, ...]]:
    """The comb's rows ``h``, its column count ``a`` and its table.

    An exponent below ``order`` is read as ``h`` rows of ``a`` bits, row j
    holding bits ``j*a`` to ``j*a + a - 1``.  Entry ``i`` of the table is
    the product of ``g^(2^(j*a))`` over the set bits j of ``i``, so one
    column of the exponent, read as an ``h``-bit index, picks its factor.
    Built on a group's first oracle power, with ``(h - 1) * a`` squarings
    and one product per further entry.
    """
    rows = min(_COMB_ROWS, order.bit_length())
    columns = -(-order.bit_length() // rows)
    table = [1]
    head = generator % modulus
    for row in range(rows):
        if row:
            for _ in range(columns):
                head = head * head % modulus
        table += [v * head % modulus for v in table]
    return rows, columns, tuple(table)


def _comb_pow(exponent: int, generator: int, modulus: int, order: int) -> int:
    """``generator^exponent mod modulus`` for ``0 <= exponent < order`` by
    the Lim-Lee comb (CRYPTO '94): one squaring and at most one table
    product per column, column by column from the top bit down."""
    rows, columns, table = _comb_table(generator, modulus, order)
    bits = format(exponent, f"0{rows * columns}b")
    result = 1
    for k in range(columns):
        result = result * result % modulus
        index = int(bits[k::columns], 2)
        if index:
            result = result * table[index] % modulus
    return result


def derive_session_key(key: GroupElement, epoch: int, params: GroupParams) -> bytes:
    """32-byte symmetric key: SHA-256 over encoded key element and epoch.

    The key is encoded like a wire element (fixed width, big-endian) but not
    tested for subgroup membership: every caller passes a product of
    elements that were either validated on decode or computed inside the
    subgroup (the leader's blind and responses, a member's recovered blind
    and the decoded responses, the oracle's power of g), and such a product
    is an element.  Only the range is checked.
    """
    if key == 1:
        raise DegenerateKey("refusing to derive from the identity element")
    if not 1 < key < params.modulus:
        raise NotInSubgroup(f"key {key} is out of range for {params.name!r}")
    material = (key.to_bytes(params.element_width, "big")
                + epoch.to_bytes(8, "big"))
    return hashlib.sha256(material).digest()
