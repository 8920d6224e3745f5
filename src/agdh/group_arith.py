"""Cyclic-group and scalar-field arithmetic over pluggable parameter sets.

All protocol math happens in a prime-order-q subgroup of the multiplicative
group of integers modulo p, generated by g.  Group elements and scalars are
plain Python ints; the functions here enforce the invariants (scalars reduced
mod q, elements validated against the subgroup on decode).

Exponentiations performed through :func:`exp` are metered via
:class:`ExpCounter` so protocol cost can be asserted exactly.

Every power goes through one kernel, :func:`_powmod`: a blinding (a power
of the generator), a leader's response, a member's recovery and the
subgroup check's ``v^q`` alike.  Where the modulus is odd and wider than 64
bits, and the ``libcrypto`` that ``hashlib`` loaded exports the ``BN_*``
functions, that kernel is OpenSSL's ``BN_mod_exp_mont_consttime``, called
through ``ctypes``: Montgomery multiplication (Montgomery, Math. Comp. 1985)
under one cached Montgomery context per modulus, in a fixed-window ladder
whose branches and table reads do not depend on the exponent's bits.  A
power therefore does not take a time that varies with the secret exponent,
as builtin ``pow``'s square-and-multiply does; only the exponent's length
shows.  On PROD (160-bit exponents, measured on a 2-CPU VM) it costs about
0.1 ms, against about 0.85 ms on builtin ``pow``.  Builtin ``pow`` stays
the kernel on an even modulus, which Montgomery reduction cannot take; on
a modulus of at most 64 bits, where the native call's fixed cost
(about 17 us, against 0.15 us for a ``pow`` on TOY's 5 bits) outweighs the
arithmetic it saves; and where the symbols cannot be resolved, for instance
when ``hashlib`` is not backed by OpenSSL.  The choice follows from the
modulus and the running interpreter alone.  Both kernels return the same
integers, so counts, wires and transcripts do not depend on it.  The
library is bound on the first power that needs it, never at import.
``validate`` and ``_is_probable_prime`` keep builtin ``pow``;
``gka_core.oracle_key`` computes its powers with its own fixed-base comb
in Python ints and calls nothing here.  Each :func:`exp` call counts as
one exponentiation.

Products of many elements, a member folding the m announced responses into
its key and the leader folding its own, go through :func:`prodmod`, on the
kernel the same modulus gives its powers, or, from encodings alone,
through :func:`prodmod_encoded`.  On the native kernel each factor
is one ``BN_bin2bn`` and one ``BN_mod_mul_montgomery`` into a per-thread
accumulator, which starts at a cached ``R^(n+1) mod p`` that undoes the
Montgomery scaling.  Those two calls are bound through ``ctypes.PyDLL``, so
they keep the interpreter lock, which for calls of about a microsecond
costs less than releasing and retaking it; the powers keep the ``CDLL``
binding, which releases it.  A member passes only the responses'
encodings, as the announcement carried them, to :func:`prodmod_encoded`,
which guards their range on the bytes themselves and ``BN_bin2bn`` loads
as they are; the leader's fold and ``agdh bench`` pass ints to
:func:`prodmod`, which are encoded first.  On PROD a factor costs about
1.1 us from its encoding and 1.25 us from an int (against 1.35 us from an
int through ``CDLL``), most of it the two ``ctypes`` calls' own cost,
against about 4.4 us for Python's ``a * b % p`` (the best of 7 x 300
folds of 99 factors, in one process on a shared 2-CPU VM), so at m = 99 a
member's fold costs about 0.11 ms rather than 0.44 ms.  The Python loop
stays the fallback wherever builtin ``pow`` is the kernel (about 0.07 us
per factor on TOY): :func:`prodmod` folds the ints, whatever encodings it
is given, and :func:`prodmod_encoded` converts each encoding as it folds.
Products are not exponentiations and no counter sees them.

Membership answers are memoised under the closure rule: a power of an
element of the order-q subgroup is itself in that subgroup.  The memo is one
set per ``(p, q)``, so each group keeps its own known elements even where
two groups share ``p``; :attr:`GroupParams.known` holds the group's set.
It holds each known element's encoding, ``element_width`` big-endian
bytes, not its int, because most questions arrive as bytes: an
announcement's 2m elements are slices of the wire, and a member needs only
its own blind and response as ints.  So ``messages.decode`` asks about
the slices themselves and converts nothing when all are known.  Asking
about a slice's int instead cost one ``int.from_bytes`` and a hash of a
1024-bit int, about 0.37 us per PROD element, where hashing the fresh
128-byte slice costs about 0.05 us (timeit over 198 elements, 2-CPU VM).
An int asks through its encoding, which each path makes once:
:func:`is_element`, :func:`element_encoding` and :func:`encode_element`
encode the value and look that up, and :func:`exp` files the native
kernel's output bytes as they are and, given the encoding of a base its
caller has just checked, files the power without looking the base up
again.  The price is memory: the encodings are objects of their own
beside the ints the nodes hold, about 176 bytes per PROD element.
:func:`is_element` asks about one value and :func:`all_known` about many
encodings at once (one ``set.issuperset``, no subgroup check).  Only two
things write to a set: the subgroup check, for a value it has proved a
member, and :func:`exp`, for a power of the generator or of a value
already in the set.  A power of the generator is filed only
once the generator's order is confirmed: :meth:`GroupParams.check_generator`
tests ``g^q = 1`` with builtin ``pow``, once per group, whether ``validate``
or the group's first generator power asks first, and never through the
subgroup check.  A value a node computed itself is therefore known when it
is encoded, and no subgroup ``pow`` re-checks it; a value that arrives from
outside is known only if it is one of those.  Each set holds at most
``1 << 16`` values, like the check's own cache; past that an arbitrary value
is dropped, which costs a later check, never a wrong answer.
"""

from __future__ import annotations

import random
import threading
from collections.abc import Iterable, Sequence
from functools import lru_cache, partial

from .errors import BadLength, ConfigError, NotInSubgroup, ZeroScalar

Scalar = int
GroupElement = int

# Trial divisors, then Miller-Rabin witnesses, which every candidate past
# trial division exceeds: deterministic for all n < 3.3e24, error < 4^-15
# above.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

#: Entries each membership memo (a group's known set, the check cache)
#: holds at most.
_MEMO_SIZE = 1 << 16

# (p, q) -> the encodings of the values known to lie in the order-q
# subgroup of Z_p*; every GroupParams with that (p, q) holds the same set
# as GroupParams.known.
_known_sets: dict[tuple[int, int], set[bytes]] = {}

#: Widest modulus, in bits, that keeps builtin ``pow`` as its kernel: up
#: to about here the native call's fixed cost outweighs what it saves.
_BUILTIN_MAX_BITS = 64


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_BASES:
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


class GroupParams:
    """A named subgroup of prime order ``order`` of the integers mod ``modulus``.

    It compares, hashes and pickles as ``(modulus, order, generator,
    name)``: an unpickled copy binds its own process's :attr:`known` set,
    and no memo travels with it.
    """

    __slots__ = ("modulus", "order", "generator", "name", "element_width",
                 "known")

    def __init__(self, modulus: int, order: int, generator: int,
                 name: str) -> None:
        self.modulus = modulus
        self.order = order
        self.generator = generator
        self.name = name
        #: Byte width of one encoded group element (big-endian, fixed).
        self.element_width = (modulus.bit_length() + 7) // 8
        #: The encodings (``element_width`` big-endian bytes) of the values
        #: known to lie in this group's order-q subgroup: one set shared by
        #: every instance with the same ``(p, q)``.
        self.known: set[bytes] = _known_sets.setdefault((modulus, order), set())

    def __eq__(self, other: object) -> bool:
        if type(other) is not GroupParams:
            return NotImplemented
        return (self.modulus, self.order, self.generator, self.name) == \
            (other.modulus, other.order, other.generator, other.name)

    def __hash__(self) -> int:
        return hash((self.modulus, self.order, self.generator, self.name))

    def __reduce__(self):
        return GroupParams, (self.modulus, self.order, self.generator, self.name)

    def __repr__(self) -> str:
        return (f"GroupParams(modulus={self.modulus!r}, order={self.order!r},"
                f" generator={self.generator!r}, name={self.name!r})")

    def validate(self) -> "GroupParams":
        """Check the group structure; raise ConfigError if it does not hold.

        q must be a prime of at least 3, so that :func:`random_scalar` can
        draw a secret, and divide p-1, and g must have multiplicative order
        exactly q (g^q = 1 with g != 1; primality of q rules out any proper
        divisor).
        """
        p, q, g = self.modulus, self.order, self.generator
        if p < 3 or q < 3 or not 1 < g < p:
            raise ConfigError(f"group {self.name!r}: parameters out of range")
        if not _is_probable_prime(q):
            raise ConfigError(f"group {self.name!r}: order is not prime")
        if (p - 1) % q != 0:
            raise ConfigError(f"group {self.name!r}: order does not divide p-1")
        self.check_generator()
        return self

    def check_generator(self) -> None:
        """Raise ConfigError unless g^q = 1.

        :func:`exp` files every power of g as a known element, so it asks
        this before the first one, whether or not ``validate`` ran; the
        answer is cached per ``(g, p, q)``, so each group pays one ``pow``.
        """
        if not _power_q_is_one(self.generator, self.modulus, self.order):
            raise ConfigError(f"group {self.name!r}: generator order is not q")


@lru_cache(maxsize=8)
def _power_q_is_one(generator: int, modulus: int, order: int) -> bool:
    # on _powmod, so TOY's validation at import binds no kernel, and PROD's
    # check, made before its first generator power, takes the native one
    return _powmod(generator, order, modulus) == 1


class ExpCounter:
    """Counts group exponentiations performed on behalf of one node.

    Incremented exactly once per :func:`exp` call; prodmod and
    encode/decode never touch it, so the count is the protocol's
    exponentiation cost.
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
        counter: ExpCounter | None = None,
        encoded: bytes | None = None) -> GroupElement:
    """base**s mod p on :func:`_powmod`'s kernel, metered: one counter bump
    per call.

    The result joins the known elements when the base is already known,
    or is the generator and its order is confirmed.  ``encoded``, if
    given, is the base's encoding from a caller that has just proved the
    base an element (``gka_core.respond`` and ``recover_leader_blind``):
    the power is filed without looking the base up again, and the native
    kernel loads it as it is.
    """
    if counter is not None:
        counter.bump()
    modulus, width = params.modulus, params.element_width
    if encoded is not None:
        filed = True
    elif base == params.generator:
        params.check_generator()
        filed = True
    elif 0 < base < modulus:
        encoded = base.to_bytes(width, "big")
        filed = encoded in params.known
    else:
        filed = False
    native = _native_for(modulus)
    if native is None:
        result = pow(base, s % params.order, modulus)
        if filed:
            power = result.to_bytes(width, "big")
    else:
        if encoded is None:
            encoded = (base % modulus).to_bytes(width, "big")
        power = native.power(encoded, s % params.order, modulus)
        result = int.from_bytes(power, "big")
    if filed:
        known = params.known  # _remember's body, inline on this hot path
        if len(known) >= _MEMO_SIZE:
            known.pop()
        known.add(power)
    return result


def _powmod(base: int, e: int, modulus: int) -> int:
    """``pow(base % modulus, e, modulus)`` for ``e >= 0``, on the native
    kernel where the modulus admits it and the library is there."""
    native = _native_for(modulus)
    if native is None:
        return pow(base, e, modulus)
    return native.powmod(base, e, modulus)


def _native_for(modulus: int) -> "_OpenSSL | None":
    if modulus & 1 and modulus.bit_length() > _BUILTIN_MAX_BITS:
        return _openssl()
    return None


def kernel_name(params: GroupParams) -> str:
    """The kernel behind this group's powers and subgroup checks, e.g.
    ``OpenSSL 3.0.2 BN_mod_exp_mont_consttime``."""
    native = _native_for(params.modulus)
    if native is None:
        return "builtin pow"
    return f"{native.version} BN_mod_exp_mont_consttime"


def _load_libcrypto():
    """The library ``hashlib`` was built against, opened through ``ctypes``
    (its ``BN_*`` symbols resolve through the ``_hashlib`` extension's own
    dependencies), or None if ``hashlib`` has no such extension."""
    try:
        import _hashlib
    except ImportError:
        return None
    path = getattr(_hashlib, "__file__", None)
    if path is None:  # built into the interpreter
        return None
    import ctypes
    try:
        return ctypes.CDLL(path)
    except OSError:
        return None


@lru_cache(maxsize=1)
def _openssl() -> "_OpenSSL | None":
    # Bound on the first power that needs it, once per process.
    lib = _load_libcrypto()
    if lib is None:
        return None
    try:
        return _OpenSSL(lib)
    except AttributeError:  # a symbol the kernel needs is not exported
        return None


class _OpenSSL:
    """``BN_mod_exp_mont_consttime`` and ``BN_mod_mul_montgomery`` from an
    OpenSSL ``libcrypto``.

    Each modulus gets one Montgomery context, shared by every thread (powers
    and products only read it); the scratch numbers, ``BN_CTX`` and output
    buffer they write belong to one thread.  The library is bound twice on
    one handle.  Through ``CDLL``, which releases the interpreter lock
    during each call, so threads exponentiate in parallel, go the powers
    and everything else; through ``PyDLL``, which keeps the lock, go only
    the fold's ``BN_bin2bn`` and ``BN_mod_mul_montgomery``
    (:attr:`fold_bin2bn` and :attr:`mont_mul`), each about a microsecond
    of work for which releasing and retaking the lock does not pay.
    Threads still switch between calls, so the scratch stays per thread.

    Every binding has one calling convention: it declares its ``restype``
    alone (``c_void_p`` for a pointer, ``c_int`` for a status or a byte
    count), with no ``argtypes`` and no ``errcheck`` callback, so a call
    converts nothing it need not.  That is sound only for what is passed:
    every ``BIGNUM``, ``BN_CTX`` and ``BN_MONT_CTX`` handle is a
    ``ctypes.c_void_p``, made once when :class:`_Modulus` or
    :class:`_Scratch` allocates it (a bare ``int`` would be passed as a C
    ``int`` and lose its top half), bytes pass as ``char *`` and widths as
    ``int``.  Each call's result is tested where it is made, a NULL
    pointer, a 0 status or a byte count other than the width; a failed
    call raises RuntimeError naming the function, never returns a value.
    """

    def __init__(self, lib) -> None:
        import ctypes

        ptr, num = ctypes.c_void_p, ctypes.c_int

        def bind(name, restype, library=lib):
            fn = getattr(library, name)
            fn.restype = restype
            return fn

        self.clear_errors = bind("ERR_clear_error", None)
        self.new_bn = bind("BN_new", ptr)
        self.free_bn = bind("BN_free", None)
        self.new_ctx = bind("BN_CTX_new", ptr)
        self.free_ctx = bind("BN_CTX_free", None)
        self.new_mont = bind("BN_MONT_CTX_new", ptr)
        self.set_mont = bind("BN_MONT_CTX_set", num)
        self.free_mont = bind("BN_MONT_CTX_free", None)
        self.bin2bn = bind("BN_bin2bn", ptr)
        self.bn2binpad = bind("BN_bn2binpad", num)
        self.exp = bind("BN_mod_exp_mont_consttime", num)
        self.to_mont = bind("BN_to_montgomery", num)
        # the fold's two calls, bound on the same handle through PyDLL, so
        # they keep the interpreter lock
        held = ctypes.PyDLL(lib._name, handle=lib._handle)
        self.fold_bin2bn = bind("BN_bin2bn", ptr, held)
        self.mont_mul = bind("BN_mod_mul_montgomery", num, held)
        self.handle = ptr
        self.one = self.new(bind("BN_value_one", ptr))
        version = bind("OpenSSL_version", ctypes.c_char_p)(0).decode()
        self.version = " ".join(version.split()[:2])  # "OpenSSL 3.0.2"
        self.buffer = ctypes.create_string_buffer
        self.modulus = lru_cache(maxsize=8)(partial(_Modulus, self))
        self.correction = lru_cache(maxsize=256)(self._correction)
        self._local = threading.local()

    def failed(self, name: str) -> RuntimeError:
        """The error to raise for a failed call to ``name``."""
        self.clear_errors()  # leave no stale error for hashlib to report
        return RuntimeError(f"OpenSSL {name} failed")

    def new(self, fn, *args):
        """The pointer ``fn(*args)`` returns, as a ``c_void_p``; NULL raises."""
        pointer = fn(*args)
        if pointer is None:
            raise self.failed(fn.__name__)
        return self.handle(pointer)

    def _scratch(self) -> "_Scratch":
        try:
            return self._local.scratch
        except AttributeError:
            self._local.scratch = _Scratch(self)
            return self._local.scratch

    def _power(self, base, e: int, mod: "_Modulus", scratch: "_Scratch") -> None:
        exponent = e.to_bytes((e.bit_length() + 7) // 8, "big")
        if self.bin2bn(exponent, len(exponent), scratch.exponent) is None:
            raise self.failed("BN_bin2bn")
        if not self.exp(scratch.result, base, scratch.exponent, mod.bn,
                        scratch.ctx, mod.mont):
            raise self.failed("BN_mod_exp_mont_consttime")

    def _read(self, bn, width: int, scratch: "_Scratch"):
        """``bn`` as ``width`` big-endian bytes in the scratch's output
        buffer, which the thread's next call overwrites."""
        out = scratch.out
        if len(out) != width:
            out = scratch.out = self.buffer(width)
        if self.bn2binpad(bn, out, width) != width:
            raise self.failed("BN_bn2binpad")
        return out

    def power(self, base: bytes, e: int, modulus: int) -> bytes:
        """``base^e mod p`` for a base given as its ``width``-byte
        big-endian encoding, and ``e >= 0``, as the same encoding."""
        mod, scratch = self.modulus(modulus), self._scratch()
        width = mod.width
        if self.bin2bn(base, width, scratch.base) is None:
            raise self.failed("BN_bin2bn")
        self._power(scratch.base, e, mod, scratch)
        return self._read(scratch.result, width, scratch).raw

    def powmod(self, base: int, e: int, modulus: int) -> int:
        width = (modulus.bit_length() + 7) // 8
        return int.from_bytes(self.power(
            (base % modulus).to_bytes(width, "big"), e, modulus), "big")

    def _correction(self, modulus: int, n: int) -> bytes:
        mod, scratch = self.modulus(modulus), self._scratch()
        self._power(mod.r, n + 1, mod, scratch)
        return self._read(scratch.result, mod.width, scratch).raw

    def prodmod(self, first: int, factors: Sequence[int], modulus: int,
                encoded: Sequence[bytes] | None = None) -> int:
        """``first * prod(factors) mod p`` for values already in ``(0, p)``;
        ``encoded``, if given, holds each factor's ``width``-byte big-endian
        encoding, which is loaded as it is, and ``factors`` is not read.

        Each ``BN_mod_mul_montgomery`` divides by R, so the n + 1 products
        that fold ``first`` and the n factors divide by ``R^(n+1)``; the
        accumulator starts at ``R^(n+1) mod p``, which cancels that.  That
        correction is ``R mod p`` raised to the public ``n + 1`` on the
        exponentiation kernel, once per modulus and ``n`` (about 24 us on
        PROD; :attr:`correction` keeps the last 256): Montgomery
        bookkeeping, not a protocol exponentiation, so no
        :class:`ExpCounter` sees it.
        """
        mod, scratch = self.modulus(modulus), self._scratch()
        width, bin2bn, mont_mul = mod.width, self.fold_bin2bn, self.mont_mul
        acc, factor, ctx, mont = scratch.result, scratch.base, scratch.ctx, mod.mont
        if encoded is None:
            encoded = [value.to_bytes(width, "big") for value in factors]
        # a correction not yet cached is computed in the scratch, so it is
        # read out before acc is loaded with it
        if bin2bn(self.correction(modulus, len(encoded)), width, acc) is None:
            raise self.failed("BN_bin2bn")
        for field in (first.to_bytes(width, "big"), *encoded):
            if bin2bn(field, width, factor) is None:
                raise self.failed("BN_bin2bn")
            if not mont_mul(acc, acc, factor, mont, ctx):
                raise self.failed("BN_mod_mul_montgomery")
        return int.from_bytes(self._read(acc, width, scratch), "big")


class _Owner:
    """Holds native handles and frees them with its last reference."""

    __slots__ = ("_owned",)

    def __init__(self) -> None:
        self._owned: list = []

    def own(self, free, handle):
        self._owned.append((free, handle))
        return handle

    def __del__(self) -> None:
        for free, handle in self._owned:
            free(handle)


class _Modulus(_Owner):
    """A modulus, its Montgomery context and ``R mod p``, where R is the
    context's power of two (whatever the library's word size makes it);
    every handle a ``c_void_p``."""

    __slots__ = ("width", "bn", "mont", "r")

    def __init__(self, lib: _OpenSSL, modulus: int) -> None:
        super().__init__()
        self.width = (modulus.bit_length() + 7) // 8
        self.bn = self.own(lib.free_bn, lib.new(
            lib.bin2bn, modulus.to_bytes(self.width, "big"), self.width, None))
        self.mont = self.own(lib.free_mont, lib.new(lib.new_mont))
        self.r = self.own(lib.free_bn, lib.new(lib.new_bn))
        ctx = lib.new(lib.new_ctx)
        try:
            if not lib.set_mont(self.mont, self.bn, ctx):
                raise lib.failed("BN_MONT_CTX_set")
            if not lib.to_mont(self.r, lib.one, self.mont, ctx):
                raise lib.failed("BN_to_montgomery")
        finally:
            lib.free_ctx(ctx)


class _Scratch(_Owner):
    """One thread's ``BN_CTX``, the three numbers an exponentiation writes
    (a product uses ``result`` as its accumulator and ``base`` for each
    factor), every one a ``c_void_p``, and the buffer results are read
    out through; the thread's end drops the last reference."""

    __slots__ = ("ctx", "base", "exponent", "result", "out")

    def __init__(self, lib: _OpenSSL) -> None:
        super().__init__()
        self.ctx = self.own(lib.free_ctx, lib.new(lib.new_ctx))
        self.base = self.own(lib.free_bn, lib.new(lib.new_bn))
        self.exponent = self.own(lib.free_bn, lib.new(lib.new_bn))
        self.result = self.own(lib.free_bn, lib.new(lib.new_bn))
        self.out = lib.buffer(0)


def prodmod(first: GroupElement, factors: Sequence[GroupElement],
            params: GroupParams,
            encoded: Sequence[bytes] | None = None) -> GroupElement:
    """``first * prod(factors) mod p``, on the kernel :func:`_powmod`
    would take for this modulus: Montgomery products where that is the
    native kernel, a Python loop otherwise.

    Every value must lie in ``(0, p)``; anything else raises NotInSubgroup
    before any native call, since a Montgomery product of an unreduced
    input is wrong.  ``encoded``, if given, holds ``factors``' encodings
    in the same order, each ``element_width`` big-endian bytes: the native
    kernel folds them, through :func:`prodmod_encoded`, instead of
    encoding each factor again, and raises BadLength, before any native
    call, unless there is one of that width per factor.  The Python loop
    ignores them.  No exponentiation is counted.
    """
    modulus = params.modulus
    if not 0 < first < modulus or factors and (
            min(factors) <= 0 or max(factors) >= modulus):
        raise NotInSubgroup(f"a factor is out of range for {params.name!r}")
    native = _native_for(modulus)
    if native is None:
        for factor in factors:
            first = first * factor % modulus
        return first
    if encoded is None:
        return native.prodmod(first, factors, modulus)
    # the native call reads element_width bytes from each encoding
    if len(encoded) != len(factors) or not \
            {*map(len, encoded)} <= {params.element_width}:
        raise BadLength(f"expected one {params.element_width}-byte encoding"
                        " per factor")
    return prodmod_encoded(first, encoded, params)


def prodmod_encoded(first: GroupElement, encoded: Sequence[bytes],
                    params: GroupParams) -> GroupElement:
    """``first`` times the elements ``encoded`` holds, mod p, on the
    kernel :func:`prodmod` would take: the native kernel loads each
    encoding as it is, the Python loop converts each.

    Each encoding must be ``element_width`` big-endian bytes, as an
    accepted wire carries it (a decoded announcement's ``fields``, whose
    width the layout fixed): unlike :func:`prodmod`'s ``encoded``, that is
    not checked again.  ``first`` and every encoded value must lie in
    ``(0, p)``, else NotInSubgroup before any native call; the guard reads
    the encodings themselves (:func:`_encodings_in_range`).  No
    exponentiation is counted.
    """
    modulus = params.modulus
    if not 0 < first < modulus or not _encodings_in_range(encoded, params):
        raise NotInSubgroup(f"a factor is out of range for {params.name!r}")
    native = _native_for(modulus)
    if native is None:
        from_bytes = int.from_bytes
        for field in encoded:
            first = first * from_bytes(field, "big") % modulus
        return first
    return native.prodmod(first, (), modulus, encoded)


def _encodings_in_range(encoded: Sequence[bytes], params: GroupParams) -> bool:
    """True iff each encoding, ``element_width`` bytes, holds a value in
    ``(0, p)``.  At a fixed width, byte order is numeric order, so the
    least must have a nonzero byte and the greatest must sort below p's
    own encoding."""
    bound = params.modulus.to_bytes(params.element_width, "big")
    return not encoded or (any(min(encoded)) and max(encoded) < bound)


def scalar_inverse(s: Scalar, params: GroupParams) -> Scalar:
    """Multiplicative inverse of s mod q."""
    s %= params.order
    if s == 0:
        raise ZeroScalar("cannot invert zero scalar")
    return pow(s, -1, params.order)


@lru_cache(maxsize=_MEMO_SIZE)
def _in_subgroup(value: int, modulus: int, order: int) -> bool:
    # Memoized, behind the known set: a member it proves joins that set, so
    # what this cache still answers is mostly non-members, re-checked when
    # a hostile wire repeats, and members the bounded set has dropped.
    return 0 < value < modulus and _powmod(value, order, modulus) == 1


def _remember(encoded: bytes, known: set[bytes]) -> None:
    if len(known) >= _MEMO_SIZE:
        known.pop()
    known.add(encoded)


def _prove(value: int, encoded: bytes | None, params: GroupParams) -> bool:
    """The subgroup check for a value whose encoding (None if it has
    none) the memo does not hold; a member it proves becomes known.  A
    value in ``[p, 256^width)`` is encoded, but no such encoding is ever
    known, and the check refuses it, or any other value out of range,
    itself, caching that answer like any other."""
    if _in_subgroup(value, params.modulus, params.order):
        _remember(encoded, params.known)
        return True
    return False


def element_encoding(value: int, params: GroupParams) -> bytes | None:
    """value's encoding if value is a member of the order-q subgroup, else
    None: :func:`is_element`'s answer, with the encoding it looked up.

    The value is encoded once, and a known encoding answers from the memo;
    any other value pays the subgroup check, and a value it proves a
    member becomes known.
    """
    try:
        encoded = value.to_bytes(params.element_width, "big")
    except OverflowError:  # negative, or wider than any element
        encoded = None
    if encoded in params.known or _prove(value, encoded, params):
        return encoded
    return None


def is_element(value: int, params: GroupParams) -> bool:
    """True iff value is a member of the order-q subgroup.

    Known elements answer from the memo; any other value pays the subgroup
    check, and a value it proves a member becomes known.
    """
    return element_encoding(value, params) is not None


def all_known(encoded: Iterable[bytes], params: GroupParams) -> bool:
    """True iff every encoding is that of an already known element of the
    subgroup.

    One set query, and no subgroup check: False means only that some value
    is not yet known, which :func:`is_element` must then settle.
    """
    return params.known.issuperset(encoded)


def encode_element(e: GroupElement, params: GroupParams) -> bytes:
    """Fixed-width big-endian encoding of a subgroup element: the value is
    encoded once, and that encoding is what the memo is asked."""
    # element_encoding's body, inline: a leader encodes 2m elements for
    # each announcement, and on TOY one more call is a tenth of the work
    try:
        encoded = e.to_bytes(params.element_width, "big")
    except OverflowError:  # negative, or wider than any element
        encoded = None
    if encoded in params.known or _prove(e, encoded, params):
        return encoded
    raise NotInSubgroup(f"{e} is not in the subgroup of {params.name!r}")


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
    """Parse the parameter file format and validate the group it names."""
    return _parse_params(text, default_name).validate()


def _parse_params(text: str, default_name: str = "custom") -> GroupParams:
    """Parse the parameter file format: one ``key=value`` per line.

    Keys ``p``, ``q``, ``g`` are hex integers; ``name`` is a plain string.
    Blank lines and ``#`` comments are ignored.  The group is not checked.
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
    return GroupParams(p, q, g, fields.get("name", default_name))


def load_params(path: str) -> GroupParams:
    """Load and validate a parameter set from a file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"parameter file {path}: not UTF-8 ({exc})") from None
    return parse_params_text(text)


#: Tiny group for exhaustive testing: the order-11 subgroup of Z_23*,
#: generated by 2.  Every algebraic property is checkable by enumeration.
TOY = GroupParams(modulus=23, order=11, generator=2, name="toy").validate()

# Production-scale set: a standard 1024-bit modular group with a 160-bit
# prime-order subgroup, kept in the text format so the file loader's parser
# is the single construction path.  It is not validated at import, which
# would cost every process a Miller-Rabin test and a 1024-bit pow: a tier-1
# test validates it, and exp still confirms g^q = 1 before the first power
# of the generator.
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

PROD = _parse_params(_PROD_TEXT)
