"""Seed expansion into vectors of field elements.

Every key stores short seeds; evaluation stretches them into long
pseudorandom vectors.  The stretch must be bit-exact across platforms
and releases, so the byte stream and the sampling rule are pinned here:

* Algorithm 0 (production): the stream for prime factor ``f`` of the
  modulus is ``SHAKE-128(seed || 0x47 || u8(f))`` squeezed from offset
  zero.  0x47 is a fixed domain-separation byte; the factor index keeps
  the per-factor streams independent.
* Algorithm 255 (test only): a 64-bit linear congruential generator,
  ``s <- 6364136223846793005*s + 1442695040888963407 mod 2**64`` with
  ``s0 = LE64(seed[:8] zero-padded) XOR (0x9E3779B97F4A7C15*(f+1))``,
  emitting LE64(s) per step starting from the first step.  Useful for
  tiny hand-checked fixtures; never use it for real keys.

Residues are drawn by rejection sampling: the stream is consumed in
ceil(bits/8)-byte little-endian words, masked down to
``bits = ceil(log2 q)`` low bits, and a candidate is accepted when it is
below q.  Acceptance probability is always above 1/2, and a cap of 2**20
candidates per output element turns a (cryptographically impossible)
run of rejections into an InternalError instead of a hang.

The stream and this acceptance rule are the bit-exact contract: the
output is the first n accepted words.  How they are found is not: the
prefix size, the shortcut when its first n words all pass, and the
filter are free to change.  Accepted words are kept with
``np.compress``, which does not branch on each word.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, sqrt

import numpy as np

from .algebra import FieldVector, Modulus
from .errors import InternalError, ParameterError

PRG_SHAKE128 = 0
PRG_TEST_LCG = 255

_DOMAIN_SEP = b"\x47"

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_SEED_MIX = 0x9E3779B97F4A7C15
_U64 = (1 << 64) - 1

# Monotone count of expand() calls, for instrumentation in benchmarks and
# tests.  Read it through expansion_count(); it is never reset.
_expansions = 0


def expansion_count() -> int:
    return _expansions


@dataclass(frozen=True)
class PrgSpec:
    """Everything needed to reproduce an expansion bit-exactly."""

    algorithm: int
    lambda_bits: int
    output_len: int
    modulus: Modulus

    def __post_init__(self) -> None:
        if self.algorithm not in (PRG_SHAKE128, PRG_TEST_LCG):
            raise ParameterError(f"unknown prg algorithm tag {self.algorithm}")
        if self.lambda_bits % 8 != 0 or not 8 <= self.lambda_bits <= 65535:
            raise ParameterError(
                f"seed length {self.lambda_bits} must be a multiple of 8 bits"
            )
        if not 1 <= self.output_len < 2 ** 32:
            raise ParameterError(f"bad output length {self.output_len}")

    @property
    def seed_bytes(self) -> int:
        return self.lambda_bits // 8


@lru_cache(maxsize=256)
def _word_format(q: int) -> tuple[int, np.dtype, np.integer, np.integer, float]:
    """Width, dtype (its own when NumPy has one), mask, q and acceptance
    rate of factor q's candidate words; mask and q are dtype scalars."""
    bits = (q - 1).bit_length()
    width = (bits + 7) // 8
    dtype = np.dtype(f"<u{width}" if width in (1, 2, 4, 8) else np.uint64)
    return width, dtype, dtype.type((1 << bits) - 1), dtype.type(q), q / (1 << bits)


def _le_words(raw: bytes, width: int) -> np.ndarray:
    """Split a byte string into little-endian uint64 words of `width` bytes."""
    mat = np.frombuffer(raw, dtype=np.uint8).reshape(-1, width).astype(np.uint64)
    out = np.zeros(mat.shape[0], dtype=np.uint64)
    for k in range(width):
        out |= mat[:, k] << np.uint64(8 * k)
    return out


def _stream(algorithm: int, seed: bytes, factor_index: int, length: int) -> bytes:
    """The first `length` bytes of the stream for one prime factor."""
    if algorithm == PRG_SHAKE128:
        h = hashlib.shake_128(seed + _DOMAIN_SEP + bytes([factor_index]))
        return h.digest(length)
    padded = (seed[:8] + b"\x00" * 8)[:8]
    s = int.from_bytes(padded, "little") ^ ((_SEED_MIX * (factor_index + 1)) & _U64)
    buf = bytearray()
    for _ in range((length + 7) // 8):
        s = (_LCG_MULT * s + _LCG_INC) & _U64
        buf += s.to_bytes(8, "little")
    return bytes(buf[:length])


def _sample_residues(algorithm: int, seed: bytes, factor_index: int, q: int, n: int) -> np.ndarray:
    """The first n accepted words of the stream, in `_word_format`'s dtype.

    The words are used as they stand when the first n all pass; a prefix
    with fewer than n accepted words is doubled and squeezed again.
    """
    width, dtype, mask, bound, accept = _word_format(q)
    # The expected word count for n acceptances plus three standard deviations.
    words = ceil(n / accept + 3 * sqrt(n * (1 - accept)) / accept) + 8
    # Testing the first n words costs about as much as gathering 256.
    fast = n >= 256 and accept ** n > 0.5
    cap = (n << 20) + (1 << 20)
    while True:
        raw = _stream(algorithm, seed, factor_index, words * width)
        same = dtype.itemsize == width
        candidates = (np.frombuffer(raw, dtype=dtype) if same else _le_words(raw, width)) & mask
        if fast and candidates[:n].max() < bound:
            return candidates[:n]
        good = candidates.compress(candidates < bound)
        if good.size >= n:
            return good[:n]
        if words > cap:
            raise InternalError(
                f"rejection sampling exceeded {cap} candidates for q={q}"
            )
        words *= 2


def expand(seed: bytes, spec: PrgSpec) -> FieldVector:
    """Stretch a seed into `spec.output_len` field elements.

    Pure function of (seed, spec): repeated calls return identical
    vectors, and streams for distinct prime factors never overlap.
    """
    if not isinstance(seed, (bytes, bytearray)):
        raise ParameterError(f"seed must be bytes, got {type(seed).__name__}")
    if len(seed) != spec.seed_bytes:
        raise ParameterError(
            f"seed is {len(seed)} bytes, spec wants {spec.seed_bytes}"
        )
    seed = bytes(seed)
    factors = spec.modulus.factors
    arr = np.empty((len(factors), spec.output_len), dtype=np.uint64)
    for fi, q in enumerate(factors):
        arr[fi] = _sample_residues(spec.algorithm, seed, fi, q, spec.output_len)
    global _expansions
    _expansions += 1
    return FieldVector._raw(spec.modulus, arr)


def sample_seed(lambda_bits: int, rng) -> bytes:
    """Uniform non-zero seed of lambda_bits/8 bytes.

    The all-zero string is reserved as the "absent seed" sentinel in
    serialized keys and is resampled on the (negligible) chance it comes up.
    """
    if lambda_bits % 8 != 0 or lambda_bits < 8:
        raise ParameterError(f"bad seed length {lambda_bits}")
    n = lambda_bits // 8
    while True:
        s = rng.randbytes(n)
        if any(s):
            return s


class DeterministicRandomSource(random.Random):
    """A seeded drop-in for random.Random backed by SHAKE-128 blocks.

    Used wherever reproducible key generation is wanted (tests, golden
    files, the CLI --seed flag) while keeping the expansion algorithm
    itself on the production primitive.  Block i of the stream is
    SHAKE-128(material || 0x52 || LE64(i)), 4096 bytes.
    """

    _BLOCK = 4096

    def __init__(self, seed_value: int | bytes | str):
        super().__init__()
        if isinstance(seed_value, int):
            if seed_value < 0:
                raise ParameterError("seed integer must be non-negative")
            width = max(1, (seed_value.bit_length() + 7) // 8)
            material = seed_value.to_bytes(width, "little")
        elif isinstance(seed_value, (bytes, bytearray)):
            material = bytes(seed_value)
        elif isinstance(seed_value, str):
            material = seed_value.encode("utf-8")
        else:
            raise ParameterError(f"unsupported seed {seed_value!r}")
        self._material = material
        self._block_index = 0
        self._buf = b""
        self._pos = 0

    def _refill(self) -> None:
        h = hashlib.shake_128(
            self._material + b"\x52" + self._block_index.to_bytes(8, "little")
        )
        self._buf = h.digest(self._BLOCK)
        self._pos = 0
        self._block_index += 1

    def randbytes(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            if self._pos >= len(self._buf):
                self._refill()
            take = min(n - len(out), len(self._buf) - self._pos)
            out += self._buf[self._pos : self._pos + take]
            self._pos += take
        return bytes(out)

    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        if k == 0:
            return 0
        numbytes = (k + 7) // 8
        x = int.from_bytes(self.randbytes(numbytes), "big")
        return x >> (numbytes * 8 - k)

    def random(self) -> float:
        return self.getrandbits(53) * (2.0 ** -53)

    def seed(self, *args, **kwargs) -> None:
        # Construction fixes the stream; reseeding is a no-op like SystemRandom.
        return None

    def getstate(self):  # pragma: no cover - unsupported by design
        raise NotImplementedError("stream state is not exposed")

    def setstate(self, state):  # pragma: no cover - unsupported by design
        raise NotImplementedError("stream state is not exposed")
