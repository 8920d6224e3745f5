"""Cyclic-group and scalar-field arithmetic over pluggable parameter sets.

All protocol math happens in a prime-order-q subgroup of the multiplicative
group of integers modulo p, generated by g.  Group elements and scalars are
plain Python ints; the functions here enforce the invariants (scalars reduced
mod q, elements validated against the subgroup on decode).

Exponentiations performed through :func:`exp` are metered via
:class:`ExpCounter` so protocol cost can be asserted exactly.

Powers of the generator (every blinding) are fixed-base exponentiations and
take a precomputed path: :func:`exp` reads them from a table whose row ``i``
holds ``g^(j * 2^(WINDOW * i))`` for ``j < 2^WINDOW``, so ``g^s`` costs about
``ceil(bits(q) / WINDOW)`` modular multiplications and no squarings.  The
table is built on a group's first generator exponentiation, once per group
(1728 entries, about 0.3 MB, for the 160-bit PROD order), never at import.
Either path counts as one exponentiation: the counter meters protocol
operations, not their cost, so a blinding and a variable-base response each
bump it once although on PROD the blinding costs about a sixth as much.

Membership answers are memoised under the closure rule: a power of an
element of the order-q subgroup is itself in that subgroup.  The memo is one
set of ``(value, p, q)`` keys, the same key as the ``_in_subgroup`` check,
so each group keeps its own known elements even where two groups share
``p``.  Only two things write to it: :func:`is_element`, after the check has
proved a value a member, and :func:`exp`, for a power of the generator (whose
order q the table confirms when it is built) or of a value already in the
set.  A value a node computed itself is therefore known when it is encoded,
and no subgroup ``pow`` re-checks it; a value that arrives from outside is
known only if it is one of those.  The set holds at most ``1 << 16`` keys,
like the check's own cache; past that an arbitrary key is dropped, which
costs a later check, never a wrong answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import BadLength, ConfigError, NotInSubgroup, ZeroScalar

Scalar = int
GroupElement = int

# Witnesses below 37 make Miller-Rabin deterministic for all n < 3.3e24;
# for larger candidates the same fixed list gives error < 4^-15.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

#: Bits of the exponent consumed per multiplication on the generator path.
#: Table size grows as 2^WINDOW per row and the multiplications fall as
#: 1/WINDOW; 6 gives 27 rows of 64 for a 160-bit order.
WINDOW = 6
_DIGIT_MASK = (1 << WINDOW) - 1

#: Entries each membership memo (known set, check cache) holds at most.
_MEMO_SIZE = 1 << 16

# (value, p, q) for every value known to lie in the order-q subgroup of Z_p*.
_known: set[tuple[int, int, int]] = set()


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13):
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GroupParams:
    """A named subgroup of prime order ``order`` of the integers mod ``modulus``."""

    modulus: int
    order: int
    generator: int
    name: str

    @property
    def element_width(self) -> int:
        """Byte width of one encoded group element (big-endian, fixed)."""
        return (self.modulus.bit_length() + 7) // 8

    def validate(self) -> "GroupParams":
        """Check the group structure; raise ConfigError if it does not hold.

        q must be prime and divide p-1, and g must have multiplicative order
        exactly q (g^q = 1 with g != 1; primality of q rules out any proper
        divisor).
        """
        p, q, g = self.modulus, self.order, self.generator
        if p < 3 or q < 2 or not 1 < g < p:
            raise ConfigError(f"group {self.name!r}: parameters out of range")
        if not _is_probable_prime(q):
            raise ConfigError(f"group {self.name!r}: order is not prime")
        if (p - 1) % q != 0:
            raise ConfigError(f"group {self.name!r}: order does not divide p-1")
        if pow(g, q, p) != 1:
            raise ConfigError(f"group {self.name!r}: generator order is not q")
        return self


class ExpCounter:
    """Counts group exponentiations performed on behalf of one node.

    Incremented exactly once per :func:`exp` call; mul and encode/decode never
    touch it, so the count is the protocol's exponentiation cost.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def bump(self) -> None:
        self.count += 1

    def __repr__(self) -> str:
        return f"ExpCounter(count={self.count})"


def random_scalar(rng: random.Random, params: GroupParams) -> Scalar:
    """Draw a secret uniformly from [1, q-1]."""
    if params.order < 3:
        raise ConfigError("order too small to draw a nonzero secret")
    return rng.randrange(1, params.order)


def exp(base: GroupElement, s: Scalar, params: GroupParams,
        counter: ExpCounter | None = None) -> GroupElement:
    """base**s mod p, metered: one counter bump per call, whichever path.

    A power of the generator is read from the group's fixed-base table;
    any other base goes through builtin ``pow``.  The result joins the
    known elements when the base is the generator or already known.
    """
    if counter is not None:
        counter.bump()
    modulus, order = params.modulus, params.order
    if base == params.generator:
        result = _table_pow(_generator_table(base, modulus, order),
                            s % order, modulus)
    else:
        result = pow(base, s % order, modulus)
        if (base, modulus, order) not in _known:
            return result
    _remember((result, modulus, order))
    return result


def _table_pow(table: tuple[tuple[int, ...], ...], s: int, modulus: int) -> int:
    # s must be below 2^(WINDOW * len(table)): one row per WINDOW bits
    result = 1
    for row in table:
        digit = s & _DIGIT_MASK
        if digit:
            result = result * row[digit] % modulus
        s >>= WINDOW
    return result


@lru_cache(maxsize=8)
def _generator_table(generator: int, modulus: int,
                     order: int) -> tuple[tuple[int, ...], ...]:
    # Memoized: built on a group's first generator exponentiation, then
    # shared by every node of the process, like the subgroup-check memo.
    rows = []
    row_base = generator  # g^(2^(WINDOW * i)) for the row being filled
    for _ in range((order.bit_length() + WINDOW - 1) // WINDOW):
        row = [1]
        for _ in range(1, 1 << WINDOW):
            row.append(row[-1] * row_base % modulus)
        rows.append(tuple(row))
        row_base = row[-1] * row_base % modulus
    table = tuple(rows)
    # exp files every power of g as a known element, so g itself must have
    # order q, whether or not GroupParams.validate ran; g^q from the table
    # is a few dozen multiplications
    if _table_pow(table, order, modulus) != 1:
        raise ConfigError(f"generator {generator} does not have order {order}")
    return table


def mul(a: GroupElement, b: GroupElement, params: GroupParams) -> GroupElement:
    """a*b mod p."""
    return a * b % params.modulus


def scalar_inverse(s: Scalar, params: GroupParams) -> Scalar:
    """Multiplicative inverse of s mod q."""
    s %= params.order
    if s == 0:
        raise ZeroScalar("cannot invert zero scalar")
    return pow(s, -1, params.order)


@lru_cache(maxsize=_MEMO_SIZE)
def _in_subgroup(value: int, modulus: int, order: int) -> bool:
    # Memoized: the same broadcast payload is validated by every receiver.
    return 0 < value < modulus and pow(value, order, modulus) == 1


def _remember(key: tuple[int, int, int]) -> None:
    if len(_known) >= _MEMO_SIZE:
        _known.pop()
    _known.add(key)


def is_element(value: int, params: GroupParams) -> bool:
    """True iff value is a member of the order-q subgroup.

    Known elements answer from the memo; any other value pays the subgroup
    check, and a value it proves a member becomes known.
    """
    key = (value, params.modulus, params.order)
    if key in _known:
        return True
    if _in_subgroup(*key):
        _remember(key)
        return True
    return False


def encode_element(e: GroupElement, params: GroupParams) -> bytes:
    """Fixed-width big-endian encoding of a subgroup element."""
    if not is_element(e, params):
        raise NotInSubgroup(f"{e} is not in the subgroup of {params.name!r}")
    return e.to_bytes(params.element_width, "big")


def decode_element(data: bytes, params: GroupParams) -> GroupElement:
    """Inverse of :func:`encode_element`; validates subgroup membership."""
    if len(data) != params.element_width:
        raise BadLength(
            f"expected {params.element_width} bytes, got {len(data)}"
        )
    value = int.from_bytes(data, "big")
    if not is_element(value, params):
        raise NotInSubgroup(f"{value} is not in the subgroup of {params.name!r}")
    return value


def parse_params_text(text: str, default_name: str = "custom") -> GroupParams:
    """Parse the parameter file format: one ``key=value`` per line.

    Keys ``p``, ``q``, ``g`` are hex integers; ``name`` is a plain string.
    Blank lines and ``#`` comments are ignored.
    """
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"parameter line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    missing = {"p", "q", "g"} - fields.keys()
    if missing:
        raise ConfigError(f"parameter file missing fields: {sorted(missing)}")
    try:
        p = int(fields["p"], 16)
        q = int(fields["q"], 16)
        g = int(fields["g"], 16)
    except ValueError as exc:
        raise ConfigError(f"parameter file: bad hex integer ({exc})") from None
    return GroupParams(p, q, g, fields.get("name", default_name)).validate()


def load_params(path: str) -> GroupParams:
    """Load and validate a parameter set from a file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_params_text(fh.read())


#: Tiny group for exhaustive testing: the order-11 subgroup of Z_23*,
#: generated by 2.  Every algebraic property is checkable by enumeration.
TOY = GroupParams(modulus=23, order=11, generator=2, name="toy").validate()

# Production-scale set: a standard 1024-bit modular group with a 160-bit
# prime-order subgroup, kept in the text format so the file loader is the
# single construction path.
_PROD_TEXT = """
name=modp1024-160
p=B10B8F96A080E01DDE92DE5EAE5D54EC52C99FBCFB06A3C69A6A9DCA52D23B61\
6073E28675A23D189838EF1E2EE652C013ECB4AEA906112324975C3CD49B83BF\
ACCBDD7D90C4BD7098488E9C219A73724EFFD6FAE5644738FAA31A4FF55BCCC0\
A151AF5F0DC8B4BD45BF37DF365C1A65E68CFDA76D4DA708DF1FB2BC2E4A4371
q=F518AA8781A8DF278ABA4E7D64B7CB9D49462353
g=A4D1CBD5C3FD34126765A442EFB99905F8104DD258AC507FD6406CFF14266D31\
266FEA1E5C41564B777E690F5504F213160217B4B01B886A5E91547F9E2749F4\
D7FBD7D3B9A92EE1909D0D2263F80A76A6A24C087A091F531DBF0A0169B6A28A\
D662A4D18E73AFA32D779D5918D08BC8858F4DCEF97C2A24855E6EEB22B3B2E5
"""

PROD = parse_params_text(_PROD_TEXT)
