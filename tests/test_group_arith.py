import ctypes
import math
import os
import random
import subprocess
import sys
import threading
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import agdh
from agdh import group_arith
from agdh.errors import BadLength, ConfigError, NotInSubgroup, ZeroScalar
from agdh.group_arith import (
    PROD,
    TOY,
    ExpCounter,
    GroupParams,
    decode_element,
    element_encoding,
    encode_element,
    exp,
    all_known,
    is_element,
    load_params,
    parse_params_text,
    prodmod,
    prodmod_encoded,
    random_scalar,
    scalar_inverse,
    _MEMO_SIZE,
    _encodings_in_range,
    _in_subgroup,
    _is_probable_prime,
    _power_q_is_one,
    _powmod,
    kernel_name,
)

# Independent oracles: exponentiation by repeated multiplication, inversion
# by brute-force search.  Only usable on the tiny group, which is the point.


def slow_exp(base: int, e: int, params: GroupParams) -> int:
    result = 1
    for _ in range(e % params.order):
        result = result * base % params.modulus
    return result


def brute_inverse(s: int, params: GroupParams) -> int:
    for candidate in range(1, params.order):
        if s * candidate % params.order == 1:
            return candidate
    raise AssertionError(f"no inverse for {s}")


TOY_SUBGROUP = sorted(slow_exp(TOY.generator, i, TOY) for i in range(TOY.order))


class TestParams:
    def test_toy_constants(self):
        assert (TOY.modulus, TOY.order, TOY.generator) == (23, 11, 2)
        assert TOY.element_width == 1

    def test_toy_generator_has_order_q(self):
        assert slow_exp(TOY.generator, TOY.order, TOY) == 1
        for d in range(1, TOY.order):
            assert slow_exp(TOY.generator, d, TOY) != 1

    def test_prod_scale(self):
        assert PROD.order.bit_length() >= 160
        assert pow(PROD.generator, PROD.order, PROD.modulus) == 1

    def test_prod_is_a_valid_group(self):
        """PROD is built unvalidated at import; this checks its constants:
        q prime and dividing p - 1, and g of order q."""
        assert PROD.validate() is PROD

    def test_import_validates_only_toy(self):
        """Importing every module confirms one generator's order, TOY's:
        PROD's validation, a primality test on q and a 1024-bit pow, is
        not paid by every process."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(agdh.__file__)))
        code = ("import agdh.cli\n"
                "from agdh.group_arith import _power_q_is_one\n"
                "print(_power_q_is_one.cache_info().misses)")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "1\n"

    def test_validate_rejects_composite_order(self):
        with pytest.raises(ConfigError):
            GroupParams(23, 10, 2, "bad").validate()

    def test_validate_rejects_wrong_generator_order(self):
        # 5 is not in the order-11 subgroup of Z_23*
        with pytest.raises(ConfigError):
            GroupParams(23, 11, 5, "bad").validate()

    def test_parse_params_roundtrip(self, tmp_path):
        path = tmp_path / "g.params"
        path.write_text("# comment\nname=tiny\np=2F\nq=17\ng=2\n")
        params = load_params(str(path))
        assert params == GroupParams(0x2F, 0x17, 2, "tiny")

    def test_parse_params_missing_field(self):
        with pytest.raises(ConfigError):
            parse_params_text("p=17\nq=2\n")


class TestRandomScalar:
    def test_deterministic_under_fixed_seed(self):
        a = random_scalar(random.Random(7), TOY)
        b = random_scalar(random.Random(7), TOY)
        assert a == b
        assert 1 <= a <= 10

    def test_exhaustive_range(self):
        rng = random.Random(0)
        seen = {random_scalar(rng, TOY) for _ in range(10_000)}
        assert seen == set(range(1, 11))

    def test_q3_boundary(self):
        tiny = GroupParams(7, 3, 2, "q3").validate()
        rng = random.Random(1)
        assert {random_scalar(rng, tiny) for _ in range(200)} == {1, 2}


class TestExpMul:
    def test_exp_frozen_values(self):
        assert exp(2, 3, TOY) == slow_exp(2, 3, TOY) == 8
        assert exp(2, 5, TOY) == slow_exp(2, 5, TOY) == 9

    def test_exp_zero_exponent(self):
        for x in TOY_SUBGROUP:
            assert exp(x, 0, TOY) == 1

    def test_mul_frozen_values(self):
        assert prodmod(8, [2], TOY) == 16
        assert prodmod(16, [16], TOY) == slow_exp(16, 2, TOY) == 3

    def test_mul_identity(self):
        for x in TOY_SUBGROUP:
            assert prodmod(x, [1], TOY) == x

    def test_counter_counts_only_exp(self):
        counter = ExpCounter()
        exp(2, 3, TOY, counter)
        prodmod(8, [2], TOY)
        encode_element(9, TOY)
        decode_element(b"\x09", TOY)
        exp(2, 5, TOY, counter)
        assert counter.count == 2

    @given(st.sampled_from(TOY_SUBGROUP),
           st.integers(0, 10), st.integers(0, 10))
    def test_exponent_law(self, x, a, b):
        assert exp(exp(x, a, TOY), b, TOY) == exp(x, a * b % TOY.order, TOY)

    @given(st.sampled_from(TOY_SUBGROUP), st.sampled_from(TOY_SUBGROUP))
    def test_closure(self, x, y):
        assert is_element(prodmod(x, [y], TOY), TOY)


class TestInverse:
    def test_frozen_values(self):
        assert scalar_inverse(4, TOY) == brute_inverse(4, TOY) == 3
        assert scalar_inverse(10, TOY) == brute_inverse(10, TOY) == 10
        assert scalar_inverse(1, TOY) == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroScalar):
            scalar_inverse(0, TOY)

    def test_exhaustive_against_oracle(self):
        for s in range(1, TOY.order):
            assert scalar_inverse(s, TOY) == brute_inverse(s, TOY)

    def test_inverse_undoes_exp(self):
        g = TOY.generator
        for s in range(1, TOY.order):
            assert exp(exp(g, s, TOY), scalar_inverse(s, TOY), TOY) == g


class TestEncoding:
    def test_roundtrip_toy(self):
        assert encode_element(9, TOY) == b"\x09"
        assert decode_element(b"\x09", TOY) == 9

    def test_zero_not_an_element(self):
        with pytest.raises(NotInSubgroup):
            decode_element(b"\x00", TOY)

    def test_non_subgroup_value_rejected(self):
        # subgroup is exactly {1,2,3,4,6,8,9,12,13,16,18}
        assert TOY_SUBGROUP == [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]
        with pytest.raises(NotInSubgroup):
            decode_element(b"\x05", TOY)

    def test_bad_length(self):
        with pytest.raises(BadLength):
            decode_element(b"\x00\x09", TOY)

    @given(st.sampled_from(TOY_SUBGROUP))
    def test_roundtrip_exhaustive(self, x):
        assert decode_element(encode_element(x, TOY), TOY) == x

    @settings(max_examples=20)
    @given(st.integers(1, 2**159))
    def test_roundtrip_prod(self, e):
        element = pow(PROD.generator, e, PROD.modulus)
        data = encode_element(element, PROD)
        assert len(data) == PROD.element_width == 128
        assert decode_element(data, PROD) == element


# Subgroups of 128-bit moduli, so their powers take the native kernel where
# there is one, with orders of 61 bits (not a multiple of 6) and 66 bits (a
# multiple).
ODD_WIDTH = parse_params_text("""
name=q61
p=80000000000000067fffffffffffffad
q=1fffffffffffffff
g=6c14293c92e191333e2d11e750c6c2d1
""")
FULL_WIDTH = parse_params_text("""
name=q66
p=800000000000000cbffffffffffffae3
q=20000000000000083
g=627b8c392cfd6dd6864a4caf01895d02
""")
GENERATOR_GROUPS = [PROD, TOY, ODD_WIDTH, FULL_WIDTH]

# Exponents are also drawn as 6-bit digits, with runs of zero digits.
DIGIT_BITS = 6


def digits_of(params: GroupParams) -> int:
    return (params.order.bit_length() + DIGIT_BITS - 1) // DIGIT_BITS


def edge_exponents(params: GroupParams) -> list[int]:
    q = params.order
    top = DIGIT_BITS * (digits_of(params) - 1)
    values = [0, 1, 2, q - 1, q, q + 1, 2 * q, 3 * q - 1,
              -1, -2, -q, -(q + 1), -(1 << 300)]
    # a single nonzero digit, with every other digit zero
    values += [d << (DIGIT_BITS * i) for i in range(digits_of(params))
               for d in (1, (1 << DIGIT_BITS) - 1)]
    # zero digits between two nonzero ones, and all-ones exponents
    values += [(1 << top) + 1, (1 << top) - 1, (1 << q.bit_length()) - 1]
    return values


def assert_edge_powers_match_pow(params: GroupParams) -> None:
    g, q, p = params.generator, params.order, params.modulus
    for s in edge_exponents(params):
        assert exp(g, s, params) == pow(g, s % q, p), s


class TestGeneratorTable:
    """Powers of the generator, which take the same kernel as any other
    base, against builtin pow.  The class keeps the name it had while these
    powers came from a fixed-base table, so its test ids stay stable."""

    @pytest.mark.parametrize("params", GENERATOR_GROUPS, ids=lambda p: p.name)
    def test_edge_exponents_match_pow(self, params):
        assert_edge_powers_match_pow(params)

    @pytest.mark.parametrize("params", GENERATOR_GROUPS, ids=lambda p: p.name)
    def test_edge_exponents_match_pow_on_builtin_pow(self, params,
                                                     builtin_kernel):
        assert kernel_name(params) == "builtin pow"
        assert_edge_powers_match_pow(params)

    @settings(max_examples=60)
    @given(st.sampled_from(GENERATOR_GROUPS), st.integers(-(2**300), 2**300))
    def test_drawn_exponents_match_pow(self, params, s):
        g = params.generator
        assert exp(g, s, params) == pow(g, s % params.order, params.modulus)

    @settings(max_examples=60)
    @given(st.sampled_from(GENERATOR_GROUPS),
           st.lists(st.sampled_from([0, 0, 0, 1, 2, (1 << DIGIT_BITS) - 1]),
                    max_size=30))
    def test_drawn_sparse_windows_match_pow(self, params, digits):
        s = sum(d << (DIGIT_BITS * i) for i, d in enumerate(digits))
        g = params.generator
        assert exp(g, s, params) == pow(g, s % params.order, params.modulus)

    @pytest.mark.parametrize("params", GENERATOR_GROUPS, ids=lambda p: p.name)
    def test_counter_bumps_once_per_call(self, params):
        counter = ExpCounter()
        for calls, s in enumerate(edge_exponents(params), start=1):
            exp(params.generator, s, params, counter)
            assert counter.count == calls


def subgroup_checks(fn):
    """``fn()``, and how many times it consulted the subgroup check."""
    before = _in_subgroup.cache_info()
    value = fn()
    after = _in_subgroup.cache_info()
    return value, after.hits + after.misses - before.hits - before.misses


class CountingSet(set):
    """A known set that counts single lookups and records what is added."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reset()

    def reset(self):
        self.lookups, self.added = 0, []

    def __contains__(self, item):
        self.lookups += 1
        return super().__contains__(item)

    def add(self, item):
        self.added.append(item)
        super().add(item)


class TestKnownElements:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(-1, 24), st.integers()), max_size=30))
    def test_toy_answers_stay_exact(self, calls):
        for base, s in calls:
            exp(base, s, TOY)
        p, q = TOY.modulus, TOY.order
        for v in range(-p, 2 * p):
            assert is_element(v, TOY) == (0 < v < p and pow(v, q, p) == 1), v

    def test_unknown_bases_do_not_register(self):
        p, q = PROD.modulus, PROD.order
        rng = random.Random("unknown-bases")
        x = exp(PROD.generator, random_scalar(rng, PROD), PROD)
        for base in (p - 1, p - x):
            # odd exponents keep the results outside the subgroup
            for s in (1, 3, 2 * rng.randrange(q // 2) + 1):
                result = exp(base, s, PROD)
                assert pow(result, q, p) != 1
                assert subgroup_checks(
                    lambda: is_element(result, PROD)) == (False, 1)

    def test_known_bases_register(self):
        rng = random.Random("known-bases")
        blinded = exp(PROD.generator, random_scalar(rng, PROD), PROD)
        outside = pow(PROD.generator, random_scalar(rng, PROD), PROD.modulus)
        # a value computed outside exp is proved once, then known
        assert subgroup_checks(lambda: is_element(outside, PROD)) == (True, 1)
        for value in (blinded,
                      exp(blinded, random_scalar(rng, PROD), PROD),
                      exp(outside, random_scalar(rng, PROD), PROD)):
            assert pow(value, PROD.order, PROD.modulus) == 1
            _, checks = subgroup_checks(lambda: encode_element(value, PROD))
            assert checks == 0

    def test_groups_sharing_p_keep_their_own_elements(self):
        pair = GroupParams(23, 2, 22, "order-2")
        assert exp(pair.generator, 1, pair) == 22
        assert exp(TOY.generator, 3, TOY) == 8
        assert exp(8, 2, TOY) == 18
        assert is_element(22, pair) and not is_element(22, TOY)
        for v in (8, 18):
            assert is_element(v, TOY) and not is_element(v, pair)

    def test_bound_keeps_answers_right(self, monkeypatch):
        # the bound holds per group: filling one group's set evicts nothing
        # from another's
        toy_known = set(TOY.known)
        params, p = ODD_WIDTH, ODD_WIDTH.modulus
        monkeypatch.setattr(params, "known", set())
        values = [exp(params.generator, s, params)
                  for s in range(1, _MEMO_SIZE + 500)]
        assert len(params.known) == _MEMO_SIZE
        assert all(is_element(v, params) for v in values)
        assert not any(is_element(p - v, params) for v in values[::16])
        assert len(params.known) == _MEMO_SIZE
        assert TOY.known == toy_known

    def test_equal_groups_share_one_set(self):
        copy = GroupParams(PROD.modulus, PROD.order, PROD.generator, "copy")
        assert copy.known is PROD.known
        assert GroupParams(23, 2, 22, "order-2").known is not TOY.known

    def test_all_known_pays_no_subgroup_check(self):
        rng = random.Random("all-known")
        blinded = encodings([exp(PROD.generator, random_scalar(rng, PROD), PROD)
                             for _ in range(3)], PROD)
        outside = pow(PROD.generator, random_scalar(rng, PROD), PROD.modulus)
        both = blinded + encodings([outside], PROD)
        assert subgroup_checks(lambda: all_known(blinded, PROD)) == (True, 0)
        assert subgroup_checks(lambda: all_known(both, PROD)) == (False, 0)
        assert all_known([], PROD)
        # a member is known once a check has proved it
        assert is_element(outside, PROD)
        assert all_known(both, PROD)
        assert not all_known(encodings([PROD.modulus - 1], PROD), PROD)
        # the memo is keyed by the fixed-width encoding alone: the int, or
        # the same value at another width, is not known
        assert not all_known([outside], PROD)
        assert not all_known([b"\0" + both[-1]], PROD)

    @pytest.mark.parametrize("params", [TOY, ODD_WIDTH], ids=lambda p: p.name)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn_calls_keep_answers_exact(self, params, data):
        """After any sequence of ``exp`` and ``is_element`` calls, on TOY
        and on the 61-bit group, every answer is the subgroup check's, and
        the memo holds only ``element_width``-byte encodings of members."""
        p, q, g = params.modulus, params.order, params.generator
        drawn = st.one_of(st.integers(-23, 45),
                          st.sampled_from([g, p - 1, p, p + g, 2 * p - 1]))
        results = []
        for is_power, v, s in data.draw(st.lists(st.tuples(
                st.booleans(), drawn, st.integers(0, 2 * q)), max_size=20)):
            if is_power:
                results.append(exp(v, s, params))
            else:
                is_element(v, params)
        for v in [*range(-23, 46), *results]:
            assert is_element(v, params) == (0 < v < p and pow(v, q, p) == 1), v
        width = params.element_width
        for encoded in params.known:
            value = int.from_bytes(encoded, "big")
            assert type(encoded) is bytes and len(encoded) == width
            assert 0 < value < p and pow(value, q, p) == 1

    def test_each_path_encodes_and_looks_up_once(self, monkeypatch):
        """``encode_element`` and ``is_element`` look a value's encoding up
        once; ``exp`` looks up its base once, or not at all when it is the
        generator or comes with its encoding, and files the power."""
        rng = random.Random("once")
        known = CountingSet(PROD.known)
        monkeypatch.setattr(PROD, "known", known)
        x = exp(PROD.generator, random_scalar(rng, PROD), PROD)
        assert known.lookups == 0 and x.to_bytes(128, "big") in known.added
        for fn in (encode_element, is_element, element_encoding):
            known.reset()
            fn(x, PROD)
            assert known.lookups == 1 and known.added == []
        known.reset()
        y = exp(x, random_scalar(rng, PROD), PROD)
        assert known.lookups == 1 and known.added == [y.to_bytes(128, "big")]
        known.reset()
        z = exp(y, random_scalar(rng, PROD), PROD, None, y.to_bytes(128, "big"))
        assert known.lookups == 0 and known.added == [z.to_bytes(128, "big")]

    @pytest.mark.parametrize("bad, honest", [
        # 5 has order 22 in Z_23*
        (GroupParams(23, 11, 5, "bad-generator"), TOY),
        # p-1 has order 2: the refusal on the native kernel
        (GroupParams(PROD.modulus, PROD.order, PROD.modulus - 1,
                     "order-2-generator"), PROD),
    ], ids=["toy", "prod"])
    def test_generator_of_wrong_order_is_refused(self, bad, honest):
        # not validated: the generator's powers must not be filed as members
        # of the order-q subgroup
        with pytest.raises(ConfigError):
            exp(bad.generator, 3, bad)
        assert not is_element(bad.generator, honest)
        assert not is_element(pow(bad.generator, 3, bad.modulus), honest)

    @pytest.mark.parametrize("honest", [ODD_WIDTH, PROD], ids=lambda p: p.name)
    def test_generator_order_is_confirmed_without_a_subgroup_check(self, honest):
        # g^3 also generates the order-q subgroup; the group is not
        # validated, so its first generator power confirms g's order
        p = honest.modulus
        fresh = GroupParams(p, honest.order, pow(honest.generator, 3, p),
                            f"{honest.name}-cubed")
        before = _power_q_is_one.cache_info()
        power, checks = subgroup_checks(lambda: exp(fresh.generator, 5, fresh))
        assert checks == 0
        assert _power_q_is_one.cache_info().misses == before.misses + 1
        # the power is filed as known, and g's order is not confirmed again
        _, checks = subgroup_checks(
            lambda: (encode_element(power, fresh),
                     exp(fresh.generator, 7, fresh)))
        assert checks == 0
        assert _power_q_is_one.cache_info().misses == before.misses + 1


# Moduli for the exponentiation kernel: PROD's p, a 2048-bit prime and the
# 521-bit Mersenne prime, whose width is not a multiple of the 64-bit
# Montgomery word, take the native kernel where there is one; an even
# modulus and TOY's p take builtin pow.
PRIME_2048 = 2**2048 - 1942289
KERNEL_MODULI = [PROD.modulus, PRIME_2048, 2**521 - 1, 2**1024 + 2, TOY.modulus]
EDGE_EXPONENTS = [0, 1, PROD.order - 1, PROD.order, 2**1024 - 1]


def edge_bases(m: int) -> list[int]:
    return [0, 1, m - 1, m, m + 1, -1, -m - 1, m**3 + 5]


@st.composite
def kernel_cases(draw):
    m = draw(st.sampled_from(KERNEL_MODULI))
    base = draw(st.one_of(st.sampled_from(edge_bases(m)),
                          st.integers(-(m**2), m**3)))
    e = draw(st.one_of(st.sampled_from(EDGE_EXPONENTS),
                       st.integers(0, 2**1024)))
    return base, e, m


needs_native = pytest.mark.skipif(
    group_arith._openssl() is None,
    reason="hashlib's libcrypto exports no BN_mod_exp_mont_consttime")


@pytest.fixture(params=[None, object()], ids=["no-library", "no-symbols"])
def builtin_kernel(request, monkeypatch):
    """Every power on builtin pow, as where hashlib's library is missing or
    does not export the BN_* functions."""
    monkeypatch.setattr(group_arith, "_load_libcrypto", lambda: request.param)
    group_arith._openssl.cache_clear()
    yield
    group_arith._openssl.cache_clear()  # rebound once the patch is undone


def python_fold(first: int, factors: list[int], m: int) -> int:
    for factor in factors:
        first = first * factor % m
    return first


def kernel_probe(m: int) -> GroupParams:
    # not validated: prodmod reads only the modulus
    return GroupParams(m, 2, 2, "kernel-probe")


@st.composite
def product_cases(draw, m: int):
    value = st.one_of(st.sampled_from([1, m - 1]), st.integers(1, m - 1))
    return draw(value), draw(st.lists(value, max_size=120))


def assert_products_match_python(m: int, data) -> None:
    first, factors = data.draw(product_cases(m))
    assert prodmod(first, factors, kernel_probe(m)) == \
        python_fold(first, factors, m)


def encodings(values: list[int], params: GroupParams) -> tuple[bytes, ...]:
    return tuple(v.to_bytes(params.element_width, "big") for v in values)


def assert_out_of_range_values_raise(m: int) -> None:
    params = kernel_probe(m)
    for value in (0, m, -3, 2 * m + 1):
        for first, factors in ((value, [2]), (2, [value]),
                               (2, [3, m - 1, value, 1])):
            with pytest.raises(NotInSubgroup):
                prodmod(first, factors, params)


class TestProductKernel:
    @pytest.mark.parametrize("m", KERNEL_MODULI, ids=lambda m: f"{m.bit_length()}b")
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_drawn_products_match_python(self, m, data):
        assert_products_match_python(m, data)

    @pytest.mark.parametrize("m", KERNEL_MODULI, ids=lambda m: f"{m.bit_length()}b")
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_drawn_products_match_python_on_builtin_pow(self, m, data,
                                                        builtin_kernel):
        assert kernel_name(kernel_probe(m)) == "builtin pow"
        assert_products_match_python(m, data)

    @needs_native
    @pytest.mark.parametrize("m", [PROD.modulus, PRIME_2048, 2**521 - 1],
                             ids=lambda m: f"{m.bit_length()}b")
    def test_every_length_on_the_native_kernel(self, m):
        # each length needs its own Montgomery correction R^(n+1)
        native, rng = group_arith._openssl(), random.Random(m)
        for n in range(121):
            factors = [rng.choice([1, m - 1, rng.randrange(1, m)])
                       for _ in range(n)]
            first = rng.randrange(1, m)
            assert native.prodmod(first, factors, m) == \
                python_fold(first, factors, m), n

    @needs_native
    @pytest.mark.parametrize("params", [PROD, ODD_WIDTH], ids=lambda p: p.name)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_drawn_products_from_encodings_match_python(self, params, data):
        assert kernel_name(params) != "builtin pow"
        first, factors = data.draw(product_cases(params.modulus))
        assert prodmod(first, factors, params, encodings(factors, params)) == \
            python_fold(first, factors, params.modulus)

    @needs_native
    def test_native_kernel_folds_the_encodings(self):
        """Where the kernel is native, the encodings are what it folds:
        here they encode other values than the ints, which no caller
        passes."""
        rng = random.Random("folds-encodings")
        factors, others = ([rng.randrange(1, PROD.modulus) for _ in range(5)]
                           for _ in range(2))
        assert prodmod(3, factors, PROD, encodings(others, PROD)) == \
            python_fold(3, others, PROD.modulus)

    @pytest.mark.parametrize("params", [TOY, PROD, ODD_WIDTH], ids=lambda p: p.name)
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_builtin_pow_ignores_encodings(self, params, data, builtin_kernel):
        """The Python loop folds the ints, whatever the encodings hold:
        here the encodings of 0, which no native fold would accept."""
        assert kernel_name(params) == "builtin pow"
        first, factors = data.draw(product_cases(params.modulus))
        zeros = encodings([0] * len(factors), params)
        for encoded in (encodings(factors, params), zeros):
            assert prodmod(first, factors, params, encoded) == \
                python_fold(first, factors, params.modulus)

    @needs_native
    def test_encodings_of_another_width_or_count_raise(self, monkeypatch):
        """The native fold reads ``element_width`` bytes from each
        encoding, so a count or a width that differs raises BadLength
        before any native call."""
        rng = random.Random("encodings")
        factors = [rng.randrange(1, PROD.modulus) for _ in range(4)]
        good = encodings(factors, PROD)
        monkeypatch.setattr(group_arith._openssl(), "prodmod", None)
        for bad in (good[:-1], good + good[:1], good[:-1] + (good[-1][1:],),
                    good[:-1] + (b"\0" + good[-1],)):
            with pytest.raises(BadLength):
                prodmod(2, factors, PROD, bad)

    @pytest.mark.parametrize("params", [TOY, ODD_WIDTH, PROD], ids=lambda p: p.name)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_encoding_range_guard_agrees_with_the_int_guard(self, params, data):
        """At a fixed width, byte order is numeric order: the guard on
        encodings refuses exactly the values the int guard refuses."""
        p, width = params.modulus, params.element_width
        top = 256 ** width - 1
        edges = [0, 1, 2, p - 2, p - 1, p, p + 1, top]
        values = data.draw(st.lists(st.one_of(st.sampled_from(edges),
                                              st.integers(0, top)),
                                    min_size=1, max_size=8))
        for value in values:
            assert _encodings_in_range(encodings([value], params), params) \
                == (0 < value < p), value
        assert _encodings_in_range(encodings(values, params), params) == \
            all(0 < value < p for value in values)
        assert _encodings_in_range((), params)

    @pytest.mark.parametrize("params, native", [
        (TOY, False), (PROD, False),
        pytest.param(PROD, True, marks=needs_native)],
        ids=["toy", "prod-builtin", "prod-native"])
    def test_encodings_out_of_range_raise(self, params, native, monkeypatch):
        """An encoding of 0, of p or of a value above p raises NotInSubgroup
        before any native call, from ``prodmod_encoded`` on either kernel
        and from ``prodmod``'s encodings where the native kernel would fold
        them."""
        if native:
            monkeypatch.setattr(group_arith._openssl(), "prodmod", None)
        else:
            monkeypatch.setattr(group_arith, "_native_for", lambda m: None)
        p, width = params.modulus, params.element_width
        factors = [params.generator, p - 1, 1]
        for bad in (0, p, p + 1, 256 ** width - 1):
            for at in range(len(factors)):
                encoded = encodings(factors[:at] + [bad] + factors[at + 1:],
                                    params)
                with pytest.raises(NotInSubgroup):
                    prodmod_encoded(2, encoded, params)
                if native:
                    with pytest.raises(NotInSubgroup):
                        prodmod(2, factors, params, encoded)
        for first in (0, p):
            with pytest.raises(NotInSubgroup):
                prodmod_encoded(first, encodings(factors, params), params)

    @pytest.mark.parametrize("params", [TOY, PROD, ODD_WIDTH], ids=lambda p: p.name)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_drawn_products_of_encodings_match_python(self, params, data):
        first, factors = data.draw(product_cases(params.modulus))
        assert prodmod_encoded(first, encodings(factors, params), params) == \
            python_fold(first, factors, params.modulus)

    @pytest.mark.parametrize("m", KERNEL_MODULI, ids=lambda m: f"{m.bit_length()}b")
    def test_out_of_range_values_raise(self, m):
        assert_out_of_range_values_raise(m)

    @pytest.mark.parametrize("m", KERNEL_MODULI, ids=lambda m: f"{m.bit_length()}b")
    def test_out_of_range_values_raise_on_builtin_pow(self, m, builtin_kernel):
        assert_out_of_range_values_raise(m)


def test_primality_agrees_with_trial_division():
    """Every n below 10,000, the primes up to 47 among them: each is both a
    trial divisor and a Miller-Rabin witness."""
    primes = [n for n in range(2, 10_000)
              if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert [n for n in range(10_000) if _is_probable_prime(n)] == primes


class TestPowKernel:
    def test_prime_2048_is_prime(self):
        assert PRIME_2048.bit_length() == 2048
        assert _is_probable_prime(PRIME_2048)

    @pytest.mark.parametrize("m", KERNEL_MODULI, ids=lambda m: f"{m.bit_length()}b")
    def test_edges_match_pow(self, m):
        for base in edge_bases(m):
            for e in EDGE_EXPONENTS:
                assert _powmod(base, e, m) == pow(base % m, e, m), (base, e)

    @settings(max_examples=150)
    @given(kernel_cases())
    def test_drawn_cases_match_pow(self, case):
        base, e, m = case
        assert _powmod(base, e, m) == pow(base % m, e, m)

    @needs_native
    def test_kernel_follows_the_modulus(self):
        native = kernel_name(PROD)
        assert native.startswith("OpenSSL ")
        assert native.endswith(" BN_mod_exp_mont_consttime")
        assert kernel_name(TOY) == "builtin pow"
        for m, kernel in ((2**64 - 59, "builtin pow"), (2**65 - 49, native),
                          (2**1024 + 2, "builtin pow")):
            assert kernel_name(GroupParams(m, 2, 2, "kernel-probe")) == kernel

    def test_both_kernels_give_the_pinned_prod_churn_run(self, builtin_kernel):
        from test_simnet import (
            PROD_CHURN_DIGESTS,
            prod_churn_digests,
            prod_churn_run,
        )

        assert kernel_name(PROD) == "builtin pow"
        assert prod_churn_digests(prod_churn_run()) == PROD_CHURN_DIGESTS

    @needs_native
    def test_threads_share_no_scratch(self):
        """Threads exponentiate and multiply at once, on two moduli, the
        products from ints and from their encodings.  A power releases the
        interpreter lock inside each native call (``CDLL``); a product's
        ``BN_bin2bn`` and ``BN_mod_mul_montgomery`` hold it (``PyDLL``),
        but threads still switch between those calls.  Every result must
        equal builtin pow's or the Python fold's, which a scratch number
        shared between threads would break."""
        results: dict[int, list[tuple[int, int]]] = {}
        groups = [PROD, ODD_WIDTH, PROD, ODD_WIDTH]

        def work(index: int) -> None:
            params = groups[index]
            rng = random.Random(f"thread/{index}")
            got = results.setdefault(index, [])
            for _ in range(150):
                base = rng.randrange(2, params.modulus)
                s = random_scalar(rng, params)
                got.append((exp(base, s, params),
                            pow(base, s, params.modulus)))
                factors = [rng.randrange(1, params.modulus)
                           for _ in range(rng.randrange(8))]
                product = python_fold(base, factors, params.modulus)
                got.append((prodmod(base, factors, params), product))
                got.append((prodmod(base, factors, params,
                                    encodings(factors, params)), product))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(groups))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(results) == list(range(len(groups)))
        for got in results.values():
            assert len(got) == 450
            assert all(native == builtin for native, builtin in got)

    @needs_native
    def test_failed_call_raises(self):
        native = group_arith._openssl()
        # Montgomery reduction needs an odd modulus: OpenSSL refuses this one
        with pytest.raises(RuntimeError, match="BN_MONT_CTX_set"):
            native.powmod(3, 5, 2**200 + 2)
        assert native.powmod(3, 5, PROD.modulus) == pow(3, 5, PROD.modulus)

    @needs_native
    @pytest.mark.parametrize("call, binding, failure, name", [
        ("powmod", "bin2bn", None, "BN_bin2bn"),
        ("powmod", "exp", 0, "BN_mod_exp_mont_consttime"),
        ("powmod", "bn2binpad", -1, "BN_bn2binpad"),
        ("powmod", "bn2binpad", 127, "BN_bn2binpad"),
        ("prodmod", "fold_bin2bn", None, "BN_bin2bn"),
        ("prodmod", "mont_mul", 0, "BN_mod_mul_montgomery"),
        ("prodmod", "bn2binpad", -1, "BN_bn2binpad"),
        ("prodmod_encoded", "fold_bin2bn", None, "BN_bin2bn"),
        ("prodmod_encoded", "mont_mul", 0, "BN_mod_mul_montgomery"),
    ])
    def test_each_hot_call_checks_its_result(self, monkeypatch, call, binding,
                                             failure, name):
        """A NULL pointer, a 0 status or a byte count other than PROD's
        128-byte width, from any call on the hot paths, raises naming that
        function after clearing the error queue; the next real call is
        right."""
        native, m = group_arith._openssl(), PROD.modulus
        rng = random.Random(f"{call}/{binding}")
        base, e = rng.randrange(2, m), rng.randrange(PROD.order)
        factors = [rng.randrange(1, m) for _ in range(5)]
        if call == "powmod":
            run, expected = partial(native.powmod, base, e, m), pow(base, e, m)
        else:
            encoded = encodings(factors, PROD) if call == "prodmod_encoded" else None
            run = partial(native.prodmod, base, factors, m, encoded)
            expected = python_fold(base, factors, m)
        assert run() == expected  # the modulus and correction are cached
        cleared = []
        with monkeypatch.context() as patch:
            patch.setattr(native, binding, lambda *args: failure)
            patch.setattr(native, "clear_errors", lambda: cleared.append(1))
            with pytest.raises(RuntimeError, match=f"^OpenSSL {name} failed$"):
                run()
        assert cleared == [1]
        assert run() == expected

    @needs_native
    def test_only_the_fold_keeps_the_interpreter_lock(self):
        """The fold's two calls are bound through ``PyDLL``; the powers'
        calls, and every other, through ``CDLL``, which releases the lock,
        so threads still exponentiate in parallel."""
        native, held = group_arith._openssl(), ctypes._FUNCFLAG_PYTHONAPI
        assert native.fold_bin2bn._flags_ & held and native.mont_mul._flags_ & held
        assert not any(fn._flags_ & held for fn in (
            native.bin2bn, native.exp, native.bn2binpad, native.to_mont))

    @needs_native
    def test_every_handle_is_a_pointer(self):
        """Without ``argtypes`` a bare int would be passed as a C int, so
        every handle the kernel passes is a ``c_void_p``."""
        native = group_arith._openssl()
        mod = native.modulus(PROD.modulus)
        scratch = native._scratch()
        handles = [native.one, mod.bn, mod.mont, mod.r, scratch.ctx,
                   scratch.base, scratch.exponent, scratch.result]
        assert all(type(h) is ctypes.c_void_p and h.value for h in handles)
        owned = [h for owner in (mod, scratch) for _, h in owner._owned]
        assert owned == handles[1:]

    def test_import_binds_no_kernel(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(agdh.__file__)))
        code = ("import sys, agdh\n"
                "from agdh.group_arith import _openssl\n"
                "print(_openssl.cache_info().currsize, 'ctypes' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["0", "False"]
