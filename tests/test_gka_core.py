import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agdh.errors import DegenerateKey, NotInSubgroup, ZeroScalar
from agdh.gka_core import (
    GroupEntry,
    blind,
    compute_key_leader,
    compute_key_member,
    derive_session_key,
    oracle_key,
    recover_leader_blind,
    respond,
    _comb_table,
)
from agdh import gka_core, group_arith
from agdh.group_arith import (
    PROD,
    TOY,
    ExpCounter,
    GroupParams,
    _in_subgroup,
    prodmod,
)
from test_group_arith import FULL_WIDTH, ODD_WIDTH

SCALARS = range(1, TOY.order)  # [1, 10]


def share(pid: int, secret: int) -> GroupEntry:
    return GroupEntry(pid, bytes([pid]) * 16, blind(secret, TOY))


class TestBlindRespondRecover:
    def test_blind_frozen(self):
        assert blind(4, TOY) == 16
        assert blind(5, TOY) == 9

    def test_blind_never_identity(self):
        assert all(blind(s, TOY) != 1 for s in SCALARS)

    def test_blind_rejects_zero(self):
        with pytest.raises(ZeroScalar):
            blind(0, TOY)

    def test_respond_frozen(self):
        assert respond(16, 3, TOY) == 2   # g^(4*3) = g^1
        assert respond(9, 3, TOY) == 16   # g^(5*3) = g^4

    def test_respond_rejects_non_element(self):
        with pytest.raises(NotInSubgroup):
            respond(5, 3, TOY)

    def test_recover_frozen(self):
        assert recover_leader_blind(2, 4, TOY) == 8    # inv(4)=3, 2^3
        assert recover_leader_blind(16, 5, TOY) == 8   # inv(5)=9, g^(4*9 mod 11)=g^3

    def test_recover_roundtrip_exhaustive(self):
        for r, s in itertools.product(SCALARS, SCALARS):
            assert recover_leader_blind(respond(blind(r, TOY), s, TOY), r, TOY) \
                == blind(s, TOY)


class TestKeyComputation:
    def test_member_key_frozen(self):
        assert compute_key_member(8, [2, 16], TOY) == 3

    def test_member_key_empty_is_leader_blind(self):
        assert compute_key_member(8, [], TOY) == 8

    def test_leader_key_frozen(self):
        key, entries = compute_key_leader(
            3, [share(2, 4), share(4, 5)], TOY)
        assert key == 3
        assert [e.blinded_response for e in entries] == [2, 16]
        assert [(e.participant_id, e.blinded_secret) for e in entries] == \
            [(2, 16), (4, 9)]

    def test_leader_key_empty(self):
        # a singleton group: the key is the leader's own blind
        key, entries = compute_key_leader(3, [], TOY)
        assert key == blind(3, TOY) == 8 and entries == []

    @given(st.permutations(list(range(4))))
    def test_any_share_order(self, order):
        shares = [share(i + 2, 2 * i + 1) for i in range(4)]
        key, entries = compute_key_leader(7, [shares[i] for i in order], TOY)
        assert key == compute_key_leader(7, shares, TOY)[0]
        assert [e.participant_id for e in entries] == \
            [shares[i].participant_id for i in order]

    def test_leader_cost_is_m(self):
        counter = ExpCounter()
        shares = [share(i, i) for i in range(1, 6)]
        compute_key_leader(7, shares, TOY, counter)
        assert counter.count == len(shares) + 1

    def test_member_cost_is_two(self):
        counter = ExpCounter()
        blinded = blind(4, TOY, counter)
        response = respond(blinded, 3, TOY)
        leader_blind = recover_leader_blind(response, 4, TOY, counter)
        compute_key_member(leader_blind, [response], TOY)
        assert counter.count == 2

    def test_oracle_frozen(self):
        assert oracle_key(3, [4, 5], TOY) == 3
        assert oracle_key(3, [], TOY) == blind(3, TOY)
        # exponent 3*(1+28) mod 11 = 10, so the key is g^10
        assert oracle_key(3, [4, 5, 10, 2, 7], TOY) == pow(2, 10, 23) == 12

    def test_degenerate_detected(self):
        # member secrets sum to 10, so 1 + sum = 0 mod 11
        shares = [share(1, 4), share(2, 6)]
        with pytest.raises(DegenerateKey):
            compute_key_leader(3, shares, TOY)


def test_end_to_end_agreement_exhaustive_toy():
    """Leader path, member path, and the exponent oracle agree for every
    (r_l, r_i, r_j) over the full scalar range: 1000 cases."""
    for r_l, r_i, r_j in itertools.product(SCALARS, SCALARS, SCALARS):
        members = [(2, r_i), (4, r_j)]
        expected = oracle_key(r_l, [r_i, r_j], TOY)
        if (1 + r_i + r_j) % TOY.order == 0:
            with pytest.raises(DegenerateKey):
                compute_key_leader(
                    r_l, [share(p, s) for p, s in members], TOY)
            continue
        key, entries = compute_key_leader(
            r_l, [share(p, s) for p, s in members], TOY)
        assert key == expected
        for pid, secret in members:
            mine = next(e for e in entries if e.participant_id == pid)
            leader_blind = recover_leader_blind(mine.blinded_response, secret, TOY)
            assert compute_key_member(
                leader_blind, [e.blinded_response for e in entries], TOY) == expected


@given(st.integers(1, 10), st.lists(st.integers(1, 10), max_size=4))
def test_agreement_randomized(r_l, member_secrets):
    shares = [share(i + 2, s) for i, s in enumerate(member_secrets)]
    expected = oracle_key(r_l, member_secrets, TOY)
    if expected == 1:
        with pytest.raises(DegenerateKey):
            compute_key_leader(r_l, shares, TOY)
        return
    key, _ = compute_key_leader(r_l, shares, TOY)
    assert key == expected


def test_key_freshness():
    """Changing any single secret changes the key, except on the 1/q exponent
    collision, which the oracle detects and the sample excludes."""
    rng = random.Random(42)
    for _ in range(300):
        r_l = rng.randrange(1, 11)
        secrets = [rng.randrange(1, 11) for _ in range(3)]
        base = oracle_key(r_l, secrets, TOY)
        for index in range(len(secrets)):
            for replacement in SCALARS:
                if replacement == secrets[index]:
                    continue
                changed = secrets.copy()
                changed[index] = replacement
                exponents_collide = (
                    r_l * (1 + sum(changed)) % TOY.order
                    == r_l * (1 + sum(secrets)) % TOY.order)
                if exponents_collide:
                    continue
                assert oracle_key(r_l, changed, TOY) != base
        for replacement in SCALARS:
            if replacement == r_l:
                continue
            exponents_collide = (
                replacement * (1 + sum(secrets)) % TOY.order
                == r_l * (1 + sum(secrets)) % TOY.order)
            if not exponents_collide:
                assert oracle_key(replacement, secrets, TOY) != base


class TestDeriveSessionKey:
    def test_deterministic(self):
        assert derive_session_key(3, 0, TOY) == derive_session_key(3, 0, TOY)

    def test_epoch_changes_output(self):
        assert derive_session_key(3, 0, TOY) != derive_session_key(3, 1, TOY)

    def test_known_value(self):
        # independent recomputation of the hash input layout
        expected = hashlib.sha256(b"\x03" + (0).to_bytes(8, "big")).digest()
        derived = derive_session_key(3, 0, TOY)
        assert derived == expected
        assert len(derived) == 32

    def test_identity_rejected(self):
        with pytest.raises(DegenerateKey):
            derive_session_key(1, 0, TOY)

    def test_out_of_range_rejected(self):
        for key in (0, -3, TOY.modulus, TOY.modulus + 3):
            with pytest.raises(NotInSubgroup):
                derive_session_key(key, 0, TOY)

    def test_no_subgroup_check(self):
        # callers pass products of validated elements, so the KDF spends no
        # subgroup exponentiation (and leaves the shared memo alone)
        key = pow(PROD.generator, 12345, PROD.modulus)
        before = _in_subgroup.cache_info()
        derived = derive_session_key(key, 7, PROD)
        after = _in_subgroup.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        material = key.to_bytes(128, "big") + (7).to_bytes(8, "big")
        assert derived == hashlib.sha256(material).digest()


class TestBatch:
    """The batched schedule of ``agdh bench`` and criterion 8: the leader's
    blind and every response computed as shares arrive, then one
    :func:`prodmod` at announcement time."""

    @staticmethod
    def fold(leader_secret, shares, counter=None):
        leader_blind = blind(leader_secret, TOY, counter)
        responses = [respond(s.blinded_secret, leader_secret, TOY, counter)
                     for s in shares]
        return prodmod(leader_blind, responses, TOY), responses

    def test_matches_unbatched(self):
        shares = [share(2, 4), share(4, 5)]
        key, responses = self.fold(3, shares)
        assert compute_key_leader(3, shares, TOY) == (
            key,
            [s._replace(blinded_response=r)
             for s, r in zip(shares, responses)])

    def test_order_independent(self):
        a, b = share(2, 4), share(4, 5)
        assert self.fold(3, [a, b])[0] == self.fold(3, [b, a])[0]

    def test_empty_batch(self):
        key, responses = self.fold(3, [])
        assert key == 8 and responses == []

    def test_finalize_needs_no_exponentiation(self):
        # the blind and the responses hold every exponentiation of
        # compute_key_leader, so its fold costs none
        shares = [share(i, i) for i in range(2, 8)]
        ahead, unbatched = ExpCounter(), ExpCounter()
        self.fold(3, shares, ahead)
        compute_key_leader(3, shares, TOY, unbatched)
        assert ahead.count == unbatched.count == len(shares) + 1

    @given(st.permutations(list(range(4))))
    def test_any_absorb_order(self, order):
        shares = [share(i + 2, 2 * i + 1) for i in range(4)]
        assert self.fold(7, [shares[i] for i in order])[0] == \
            compute_key_leader(7, shares, TOY)[0]


def test_three_member_example_run():
    """The worked example shape: leader 1 with members 2, 4, 5; every member
    recovers the leader blind and computes g^(r1*(1+r2+r4+r5))."""
    r1, members = 3, {2: 7, 4: 2, 5: 9}
    shares = [share(pid, s) for pid, s in members.items()]
    key, entries = compute_key_leader(r1, shares, TOY)
    assert key == oracle_key(r1, list(members.values()), TOY)
    for pid, secret in members.items():
        mine = next(e for e in entries if e.participant_id == pid)
        recovered = recover_leader_blind(mine.blinded_response, secret, TOY)
        assert recovered == blind(r1, TOY)
        assert compute_key_member(
            recovered, [e.blinded_response for e in entries], TOY) == key


def test_agreement_exhaustive_group_of_four():
    """Every (r_l, r_a, r_b, r_c) over the full toy scalar range: the leader
    fold matches the exponent oracle (14641 cases)."""
    for r_l in SCALARS:
        for r_a in SCALARS:
            for r_b in SCALARS:
                for r_c in SCALARS:
                    expected = oracle_key(r_l, [r_a, r_b, r_c], TOY)
                    shares = [share(2, r_a),
                                     share(3, r_b),
                                     share(4, r_c)]
                    if expected == 1:
                        with pytest.raises(DegenerateKey):
                            compute_key_leader(r_l, shares, TOY)
                        continue
                    key, _ = compute_key_leader(r_l, shares, TOY)
                    assert key == expected


# -- the exponent oracle's comb against builtin pow --------------------------

ORACLE_GROUPS = [PROD, TOY, ODD_WIDTH, FULL_WIDTH]


def pow_key(leader_secret: int, member_secrets: list[int],
            params: GroupParams) -> int:
    """The oracle's key by builtin pow, the reference for its comb."""
    exponent = leader_secret * (1 + sum(member_secrets)) % params.order
    return pow(params.generator, exponent, params.modulus)


def secrets_for(exponent: int, params: GroupParams) -> list[tuple[int, list[int]]]:
    """Leader and member secrets whose oracle exponent is ``exponent``:
    as the leader secret alone, and through the members' sum."""
    q = params.order
    e = exponent % q
    if e == 0:  # member secrets summing to -1 mod q
        return [(1, [q - 1]), (5, [1, q - 2])]
    cases = [(e, [])]
    if e >= 2:
        cases.append((1, [e - 1]))
    return cases


def comb_edge_exponents(params: GroupParams) -> list[int]:
    """0, 1, q-1, every single bit below q's length, and all-ones runs
    across each column and row boundary of the comb."""
    q = params.order
    rows, columns, _ = _comb_table(params.generator, params.modulus, q)
    values = [0, 1, q - 1]
    values += [1 << i for i in range(q.bit_length())]
    # one full column: every row's bit k set, so the last table entry
    values += [sum(1 << (j * columns + k) for j in range(rows))
               for k in range(columns)]
    # all ones below each row boundary, and a run of two across it
    values += [(1 << (j * columns)) - 1 for j in range(1, rows + 1)]
    values += [0b11 << (j * columns - 1) for j in range(1, rows)]
    # a run of ones from each row's lowest bit up to each column
    values += [((1 << k) - 1) << (j * columns)
               for j in range(rows) for k in range(1, columns + 1)]
    values.append((1 << q.bit_length()) - 1)
    return [v % q for v in values]


class TestOracleComb:
    @pytest.mark.parametrize("params", ORACLE_GROUPS, ids=lambda p: p.name)
    def test_edge_exponents_match_pow(self, params):
        for e in comb_edge_exponents(params):
            for leader_secret, member_secrets in secrets_for(e, params):
                assert (oracle_key(leader_secret, member_secrets, params)
                        == pow_key(leader_secret, member_secrets, params)
                        == pow(params.generator, e, params.modulus)), e

    @settings(max_examples=80)
    @given(st.sampled_from(ORACLE_GROUPS), st.data())
    def test_drawn_secrets_match_pow(self, params, data):
        scalar = st.integers(1, params.order - 1)
        leader_secret = data.draw(scalar)
        member_secrets = data.draw(st.lists(scalar, max_size=8))
        assert (oracle_key(leader_secret, member_secrets, params)
                == pow_key(leader_secret, member_secrets, params))

    @pytest.mark.parametrize("params", ORACLE_GROUPS, ids=lambda p: p.name)
    def test_table_has_at_most_64_powers(self, params):
        rows, columns, table = _comb_table(
            params.generator, params.modulus, params.order)
        assert len(table) == 1 << rows <= 64
        assert rows * columns >= params.order.bit_length()

    def test_independent_of_group_arith(self, monkeypatch):
        """With every group_arith power and product patched to raise, the
        oracle still answers, builds its table and files no known element."""
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called group_arith")

        for module in (group_arith, gka_core):
            for name in ("exp", "_powmod", "prodmod", "is_element",
                         "all_known"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        known = set(PROD.known)
        _comb_table.cache_clear()
        rng = random.Random(19)
        for _ in range(5):
            leader_secret = rng.randrange(1, PROD.order)
            member_secrets = [rng.randrange(1, PROD.order) for _ in range(4)]
            assert (oracle_key(leader_secret, member_secrets, PROD)
                    == pow_key(leader_secret, member_secrets, PROD))
        assert PROD.known == known
