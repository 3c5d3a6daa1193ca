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
output is the first n accepted words, and ``expand(..., first=f)``
returns accepted words f..n-1 of them.  How they are found is not: the
prefix size, the shortcut when its first n words all pass, the filter
and the way the f-th accepted word is located are free to change.
Accepted words are kept with ``np.compress``, which does not branch on
each word; those before a point safely short of the f-th are only
counted.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, floor, sqrt

import numpy as np

from .algebra import EXPANSION_PEAK, SEED_PEAK, FieldVector, Modulus, byte_words, check_budget
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
        seed_size(self.lambda_bits)
        if not 1 <= self.output_len < 2 ** 32:
            raise ParameterError(f"bad output length {self.output_len}")


def seed_size(lambda_bits: int) -> int:
    """Bytes per seed, lambda_bits/8; lambda_bits must be a multiple of 8
    in [8, 65535], the range of the key header's u16 field."""
    if lambda_bits % 8 != 0 or not 8 <= lambda_bits <= 65535:
        raise ParameterError(f"seed length {lambda_bits} must be a multiple of 8 in [8, 65535]")
    return lambda_bits // 8


@lru_cache(maxsize=256)
def _word_format(q: int) -> tuple[int, np.integer, np.integer, float]:
    """Width, mask, q and acceptance rate of factor q's candidate words;
    mask and q are scalars of the dtype `byte_words` returns."""
    bits = (q - 1).bit_length()
    width = (bits + 7) // 8
    dtype = byte_words(bytes(width), width, "<").dtype
    return width, dtype.type((1 << bits) - 1), dtype.type(q), q / (1 << bits)


def _stream(algorithm: int, seed: bytes, factor_index: int, length: int) -> bytes:
    """The first `length` bytes of the stream for one prime factor."""
    if algorithm == PRG_SHAKE128:
        h = hashlib.shake_128(seed + _DOMAIN_SEP + bytes([factor_index]))
        return h.digest(length)
    s = int.from_bytes(seed[:8], "little") ^ ((_SEED_MIX * (factor_index + 1)) & _U64)
    # Step k is a^k*s + c*(1 + a + ... + a^(k-1)) mod 2**64, by wrapping scans.
    steps = np.full((length + 7) // 8, _LCG_MULT, dtype="<u8")
    sums = np.concatenate(([np.uint64(1)], steps.cumprod(out=steps)))[:-1]
    steps *= np.uint64(s)
    steps += np.multiply(sums.cumsum(out=sums), np.uint64(_LCG_INC), out=sums)
    return steps.tobytes()[:length]


def _sample_residues(
    algorithm: int, seed: bytes, factor_index: int, q: int, n: int, first: int = 0
) -> np.ndarray:
    """Accepted words first..n-1 of the stream, in `byte_words`'s dtype.

    The words are used as they stand when the first n all pass; a prefix
    with fewer than n accepted words is doubled and squeezed again.
    """
    width, mask, bound, accept = _word_format(q)
    # The expected word count for n acceptances plus three standard deviations.
    words = ceil(n / accept + 3 * sqrt(n * (1 - accept)) / accept) + 8
    # Testing the first n words costs about as much as gathering 256.
    fast = n >= 256 and accept ** n > 0.5
    # Words before `skip`, four standard deviations short of where the
    # first-th pass is expected, are only counted.
    skip = first and max(first, floor((first - 4 * sqrt(first * (1 - accept))) / accept))
    cap = (n << 20) + (1 << 20)
    while True:
        raw = _stream(algorithm, seed, factor_index, words * width)
        candidates = byte_words(raw, width, "<") & mask
        if fast and candidates[:n].max() < bound:
            return candidates[first:n]
        passed = candidates < bound
        before = np.count_nonzero(passed[:skip])
        if before > first:
            # The first-th pass lies before `skip`, but never before word `first`.
            skip, before = first, np.count_nonzero(passed[:first])
        good = candidates[skip:].compress(passed[skip:])
        if before + good.size >= n:
            return good[first - before : n - before]
        if words > cap:
            raise InternalError(
                f"rejection sampling exceeded {cap} candidates for q={q}"
            )
        words *= 2


def expand(seed: bytes, spec: PrgSpec, first: int = 0) -> FieldVector:
    """Stretch a seed into `spec.output_len` field elements and return
    those from index `first` on.

    Pure function of (seed, spec, first): repeated calls return identical
    vectors, `first` only drops the leading elements, and streams for
    distinct prime factors never overlap.  The squeeze of all
    `spec.output_len` elements is refused past EVAL_BUDGET.
    """
    if not isinstance(seed, (bytes, bytearray)):
        raise ParameterError(f"seed must be bytes, got {type(seed).__name__}")
    if len(seed) != spec.lambda_bits // 8:
        raise ParameterError(f"seed is {len(seed)} bytes, spec wants {spec.lambda_bits // 8}")
    if not 0 <= first < spec.output_len:
        raise ParameterError(f"first element {first} outside [0, {spec.output_len})")
    factors = spec.modulus.factors
    check_budget(len(factors) * spec.output_len, EXPANSION_PEAK, "an expansion")
    seed = bytes(seed)
    arr = np.empty((len(factors), spec.output_len - first), dtype=np.uint64)
    for fi, q in enumerate(factors):
        arr[fi] = _sample_residues(spec.algorithm, seed, fi, q, spec.output_len, first)
    global _expansions
    _expansions += 1
    return FieldVector._raw(spec.modulus, arr)


def _check_seed_space(count: int, lambda_bits: int) -> int:
    """The seed size, once `count` distinct non-zero seeds are known to
    exist and `sample_seeds` to draw them within EVAL_BUDGET."""
    size = seed_size(lambda_bits)
    check_budget(count, 3 * size + SEED_PEAK, "seeds")
    if count >= 256 ** size:
        raise ParameterError(f"{count} cells exceed the {256 ** size - 1} {size}-byte seeds")
    return size


def sample_seeds(count: int, lambda_bits: int, rng) -> np.ndarray:
    """`count` distinct non-zero uniform seeds of lambda_bits/8 bytes, as
    uint8 of shape (count, lambda_bits/8); all-zero marks an absent seed in
    key files.  Each read asks for exactly the seeds still missing, and an
    insertion-ordered dict keeps each where it first came up, so the stream
    is read as one `rng.randbytes(lambda_bits/8)` per candidate would be.
    """
    size = _check_seed_space(count, lambda_bits)
    taken: dict[bytes, None] = {}
    while len(taken) < count:
        taken.update(dict.fromkeys(np.frombuffer(
            rng.randbytes(size * (count - len(taken))), dtype=f"V{size}").tolist()))
        taken.pop(bytes(size), None)
    return np.frombuffer(b"".join(taken), dtype=np.uint8).reshape(count, size)


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
