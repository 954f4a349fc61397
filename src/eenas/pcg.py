"""The genetic search's random stream, in plain Python.

:class:`PCG64Stream` ``(entropy, spawn_key)`` draws the values that
``numpy.random.default_rng(numpy.random.SeedSequence(entropy=entropy,
spawn_key=spawn_key))`` draws, bit for bit, for the three draws the search
makes: ``random()``, ``integers(low, high)`` and ``permutation(n)``. The
algorithms are numpy's: ``SeedSequence``'s entropy pool and hash mix, PCG64
(O'Neill 2014) seeded from four of its 64-bit words with XSL-RR output and
a buffered upper half-word for 32-bit draws, Lemire's bounded 32-bit draw,
and a Fisher-Yates shuffle drawing each index by masked rejection. Only the
standard library is used, so the genetic search needs no ``numpy.random``.
"""

from __future__ import annotations

from typing import Protocol, Sequence

_M32 = (1 << 32) - 1
_M53 = (1 << 53) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# SeedSequence's constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

#: PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class Draws(Protocol):
    """The draws the genetic search makes. numpy's ``Generator`` offers
    them too; its ``integers`` returns numpy integers, which ``int()`` and
    a truth test read as the search reads an ``int``."""

    def random(self) -> float: ...

    def integers(self, low: int, high: int) -> int: ...

    def permutation(self, n: int) -> Sequence[int]: ...


def _words(n: int) -> list[int]:
    """The 32-bit words of ``n``, least significant first; 0 is one word."""
    if n < 0:
        raise ValueError("seed entropy must be non-negative")
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def seed_state(entropy: int, spawn_key: tuple[int, ...] = ()) -> list[int]:
    """``SeedSequence(entropy, spawn_key=spawn_key).generate_state(4,
    uint64)``, as four ints."""
    words = _words(entropy)
    spawn = [w for key in spawn_key for w in _words(key)]
    if spawn and len(words) < _POOL_SIZE:
        words += [0] * (_POOL_SIZE - len(words))
    words += spawn

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64Stream:
    """PCG64 seeded as ``default_rng(SeedSequence(entropy,
    spawn_key=spawn_key))`` seeds it, with numpy ``Generator``'s draws.
    ``random`` and ``integers`` step the generator inline, one method call
    per draw."""

    __slots__ = ("_state", "_inc", "_has32", "_half")

    def __init__(self, entropy: int, spawn_key: tuple[int, ...] = ()):
        # PCG's srandom: the increment is the odd 2 * seq + 1; step from
        # state 0, add the initial state, step again.
        s0, s1, i0, i1 = seed_state(entropy, spawn_key)
        self._inc = (i0 << 65 | i1 << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _M128
        self._has32 = False
        self._half = 0

    def _next32(self) -> int:
        """The low half of a 64-bit output, its high half at the next call.

        A 64-bit output is one step of the LCG, then XSL-RR: the state's
        halves folded by xor and rotated right by its top six bits, a
        rotation being a shift of the fold written twice. ``random`` and
        ``integers`` inline the same step."""
        if self._has32:
            self._has32 = False
            return self._half
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        x = (x | x << 64) >> (s >> 122) & _M64
        self._half = x >> 32
        self._has32 = True
        return x & _M32

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of one 64-bit output."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        return ((x | x << 64) >> ((s >> 122) + 11) & _M53) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high) by Lemire's 32-bit draw; a range of one
        draws nothing. Ranges past 2**32 take numpy's 64-bit path, which
        this stream does not have, so they raise."""
        n = high - low
        if n == 1:
            return low
        if not 1 < n <= 1 << 32:
            raise ValueError(f"integers needs 1 <= high - low <= 2**32, got {n}")
        if self._has32:
            self._has32 = False
            m = self._half * n
        else:
            s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
            x = (s >> 64 ^ s) & _M64
            x = (x | x << 64) >> (s >> 122) & _M64
            self._half = x >> 32
            self._has32 = True
            m = (x & _M32) * n
        if m & _M32 < n:
            threshold = (1 << 32) % n
            while m & _M32 < threshold:
                m = self._next32() * n
        return low + (m >> 32)

    def permutation(self, n: int) -> list[int]:
        """``range(n)`` shuffled by Fisher-Yates from the back, each index
        in [0, i] drawn as the low bits of a 32-bit draw masked to i's
        width, redrawn while it exceeds i (numpy draws 64 bits for an i
        past 2**32, a list no search makes)."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            out[i], out[j] = out[j], out[i]
        return out
