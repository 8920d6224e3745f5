"""Key-agreement mathematics: blinding, leader responses, recovery, and the
group key itself.

The scheme is asymmetric: each member pays two exponentiations (blind its
secret, recover the leader's blind), while the leader pays one per member
plus one for its own blind.  The shared key is

    key = g^(r_l) * prod(g^(r_i * r_l))  =  g^(r_l * (1 + sum(r_i)))

where r_l is the leader secret and r_i the member secrets.  ``oracle_key``
computes the right-hand side directly in the exponent and exists purely as an
independent check; the protocol paths never call it.

Both counted exponentiations of a member, the blinding (a power of the
generator) and the recovery of the leader blind, go through
``group_arith``'s one kernel: OpenSSL's constant-time Montgomery
exponentiation where available, builtin ``pow`` otherwise.  On PROD, on a
2-CPU VM, each takes about 0.1 ms on the native kernel and about 0.85 ms
on builtin ``pow``; the same holds for the leader's own blind and its ``m``
responses.  Each counts as one exponentiation.

The paper's cost model treats multiplications as free; at m = 100 they are
not.  A member's key step is therefore 1 counted exponentiation (the
recovery) plus m products, and the leader's finalize is one product over
its blind and the m responses.  Both products run through
``group_arith.prodmod`` on the same kernel as the powers: Montgomery
multiplication on PROD.  No product is counted as an exponentiation.
Measured on one m = 99 announcement (PROD, a shared 2-CPU VM, best of
7 x 300 calls, ranges over five runs), a member's key step splits into
decoding the wire, 0.19 to 0.26 ms on the bulk path
(``messages.decode``); the fold, 0.18 to 0.37 ms, or 1.8 to 3.7 us per
factor with each factor's conversion; the recovery, 0.09 to 0.14 ms; and
the signature and shape checks, about 0.04 ms together.  The one counted
exponentiation is thus about a sixth of the step.

``respond`` and ``recover_leader_blind`` still check that their input is a
subgroup element, because each raises it to a secret: a received value of
small order there would leak that secret modulo the small order (Lim and
Lee, CRYPTO '97).  ``group_arith`` answers the check from its memo of known
elements (powers of the generator and of proven elements), so only a value
that no check or exponentiation in the process has met costs a subgroup
``pow``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import DegenerateKey, DuplicateParticipant, NotInSubgroup, ZeroScalar
from .group_arith import (
    ExpCounter,
    GroupElement,
    GroupParams,
    Scalar,
    exp,
    is_element,
    prodmod,
    scalar_inverse,
)

NONCE_LEN = 16
DERIVED_KEY_LEN = 32


@dataclass(frozen=True)
class Contribution:
    """One participant's public share: identity, nonce, and blinded secret."""

    participant_id: int
    nonce: bytes
    blinded_secret: GroupElement


@dataclass(frozen=True)
class BlindedResponse:
    """The leader's reply for one member: its blinded secret raised to r_l."""

    participant_id: int
    response: GroupElement


@dataclass(frozen=True)
class SessionKey:
    """An established group key plus the symmetric key derived from it."""

    group_key: GroupElement
    epoch: int
    derived: bytes


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
    if not is_element(blinded_secret, params):
        raise NotInSubgroup(f"blinded secret {blinded_secret} not in subgroup")
    _check_secret(leader_secret, params)
    return exp(blinded_secret, leader_secret, params, counter)


def recover_leader_blind(response: GroupElement, own_secret: Scalar,
                         params: GroupParams,
                         counter: ExpCounter | None = None) -> GroupElement:
    """Member side: strip the own secret off the blinded response.

    (g^(r_i * r_l))^(r_i^-1) = g^(r_l).  One exponentiation plus one scalar
    inversion.
    """
    if not is_element(response, params):
        raise NotInSubgroup(f"response {response} not in subgroup")
    _check_secret(own_secret, params)
    return exp(response, scalar_inverse(own_secret, params), params, counter)


def compute_key_member(leader_blind: GroupElement,
                       responses: Sequence[GroupElement],
                       params: GroupParams) -> GroupElement:
    """Member side: multiply the recovered leader blind with every response.

    One :func:`~agdh.group_arith.prodmod` over the m responses, no
    exponentiation; with no responses the key is the leader blind itself
    (singleton group).  ``responses`` are the announced response values,
    one per member; the caller passes them from an announcement that
    ``messages.validate_shape`` has accepted, which refuses an IGROUP
    naming a participant twice, so no duplicate check is repeated here.
    """
    return prodmod(leader_blind, responses, params)


def compute_key_leader(leader_secret: Scalar,
                       contributions: list[Contribution],
                       params: GroupParams,
                       counter: ExpCounter | None = None,
                       ) -> tuple[GroupElement, list[BlindedResponse]]:
    """Leader side: respond to every contribution and fold the key.

    A :class:`LeaderBatch` run over the whole list at once: the leader's own
    blind, then one response per contribution in list order, so it costs
    exactly len(contributions) + 1 exponentiations.  Raises DegenerateKey if
    the folded key is the identity element, which happens exactly when
    1 + sum(r_i) = 0 mod q; the caller must drop a contribution and retry
    rather than ship an identity key.
    """
    batch = batch_new(leader_secret, params, counter)
    for c in contributions:
        batch_absorb(batch, c, counter)
    return batch_finalize(batch)


def oracle_key(leader_secret: Scalar, member_secrets: list[Scalar],
               params: GroupParams) -> GroupElement:
    """Reference computation in the exponent: g^(r_l * (1 + sum r_i)).

    Independent path used only by tests and the transcript auditor.  It
    calls builtin ``pow`` rather than :func:`exp` on purpose, so the audit
    checks ``group_arith``'s kernel against an implementation it does not
    share.
    """
    _check_secret(leader_secret, params)
    for s in member_secrets:
        _check_secret(s, params)
    exponent = leader_secret * (1 + sum(member_secrets)) % params.order
    return pow(params.generator, exponent, params.modulus)


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


@dataclass
class LeaderBatch:
    """Incremental leader-side key computation.

    Responses are produced as contributions arrive, so when the group
    announcement must go out no exponentiation remains: finalize is one
    :func:`~agdh.group_arith.prodmod`, the pre-computed leader blind times
    every response.
    """

    params: GroupParams
    leader_secret: Scalar
    leader_blind: GroupElement
    responses: list[BlindedResponse] = field(default_factory=list)
    _absorbed: set[int] = field(default_factory=set)


def batch_new(leader_secret: Scalar, params: GroupParams,
              counter: ExpCounter | None = None) -> LeaderBatch:
    """Start a batch; performs the leader's own blinding up front."""
    return LeaderBatch(
        params=params,
        leader_secret=leader_secret,
        leader_blind=blind(leader_secret, params, counter),
    )


def batch_absorb(batch: LeaderBatch, contribution: Contribution,
                 counter: ExpCounter | None = None) -> LeaderBatch:
    """Fold one contribution into the batch (one exponentiation, now)."""
    if contribution.participant_id in batch._absorbed:
        raise DuplicateParticipant(
            f"participant {contribution.participant_id} already absorbed"
        )
    response = respond(contribution.blinded_secret, batch.leader_secret,
                       batch.params, counter)
    batch._absorbed.add(contribution.participant_id)
    batch.responses.append(BlindedResponse(contribution.participant_id, response))
    return batch


def batch_finalize(batch: LeaderBatch) -> tuple[GroupElement, list[BlindedResponse]]:
    """Produce the key and response list; zero exponentiations left here,
    one product over the responses."""
    key = prodmod(batch.leader_blind, [r.response for r in batch.responses],
                  batch.params)
    if key == 1:
        raise DegenerateKey("group key folded to the identity element")
    return key, list(batch.responses)
