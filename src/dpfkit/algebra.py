"""Residue arithmetic over square-free moduli.

A modulus is an ordered tuple of distinct primes; its value is their
product.  Elements are stored as one residue per prime factor, so a
prime modulus is simply the single-factor case and composite moduli
never need special handling anywhere else in the package.  Values can
be mapped back to integers in [0, value) through the Chinese remainder
theorem (`FieldElement.lift`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import cycle
from math import isqrt
from typing import Iterable

import numpy as np

from .errors import GuardError, ParameterError, check_range, shown

MAX_FACTOR = 2 ** 31
MAX_VALUE = 2 ** 63
EVAL_BUDGET = 1 << 32  # bytes that one output, row of expansions or deal may take
# Bytes charged per element against EVAL_BUDGET: each sized operation's
# tracemalloc peak per element, rounded up (tests/test_algebra.py holds
# every charge to its measured peak).  A row is charged its words, a
# bound on its work: it holds one expansion at a time.
WORD_BYTES = 8  # a row's expanded words, and a full-domain output's residues
RESIDUE_PEAK = 24  # random_residues and FieldVector.random, per residue drawn
EXPANSION_PEAK = 40  # prg.expand, per word of the squeezed prefix, one retry included
SEED_PEAK = 192  # prg.sample_seeds, per seed, beside three times its length
LAYOUT_PEAK = 19  # SchemeParams.layout, per entry of either array
BOYLE_PEAK = 36  # baselines.boyle_gen, per entry of its keys' tables and a row's, beside the seed
BODY_PEAK = 10  # reading a key or database file and decoding it, per body byte


def check_budget(elements: int, bytes_per_element: int, what: str) -> None:
    """Refuse `what` past EVAL_BUDGET; the message never prints `elements`,
    which may have thousands of digits."""
    if elements * bytes_per_element > EVAL_BUDGET:
        raise GuardError(f"refusing {what}: it exceeds the budget of {EVAL_BUDGET} bytes")


# Deterministic Miller-Rabin witnesses for all n < 3.3 * 10**24, which
# comfortably covers the 63-bit modulus cap; is_prime also trial-divides
# by them first.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Automatic factoring stops trial division here; larger prime factors of a
# composite must be supplied explicitly as "q1*q2*..." text.
_TRIAL_DIVISION_LIMIT = 1 << 20


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2**64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Modulus:
    """A square-free modulus given by its strictly increasing prime factors."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        # The caps come before each primality test, so at most 62 factors
        # are tested, and no message prints an integer past them.
        if not self.factors:
            raise ParameterError("modulus needs at least one prime factor")
        prev, value = 0, 1
        for q in self.factors:
            if not isinstance(q, int):
                raise ParameterError(f"prime factor {q!r} is not an integer")
            if q <= prev:
                raise ParameterError("prime factors must be strictly increasing")
            if q >= MAX_FACTOR:
                raise ParameterError("a prime factor exceeds the 2**31 cap")
            value *= q
            if value >= MAX_VALUE:
                raise ParameterError("modulus value exceeds the 2**63 cap")
            if not is_prime(q):
                raise ParameterError(f"modulus factor {q} is not prime")
            prev = q

    @classmethod
    def prime(cls, q: int) -> "Modulus":
        return cls((q,))

    @classmethod
    def from_factors(cls, factors: Iterable[int]) -> "Modulus":
        fs = sorted(factors)
        if len(fs) != len(set(fs)):
            raise ParameterError("repeated prime factor in the modulus")
        return cls(tuple(fs))

    @classmethod
    def from_int(cls, value: int) -> "Modulus":
        """Factor a plain integer modulus by trial division.

        Rejects a value at or above 2**63 before it divides, then repeated
        factors and any factor at or above 2**31.  Trial division stops at
        2**20; a composite remainder beyond that point cannot be attributed
        to in-range factors automatically and must be written in explicit
        "q1*q2" form instead.
        """
        if value < 2:
            raise ParameterError("modulus must be >= 2")
        if value >= MAX_VALUE:
            raise ParameterError("modulus value exceeds the 2**63 cap")
        rest = value
        factors: list[int] = []
        candidate = 2
        while candidate * candidate <= rest and candidate < _TRIAL_DIVISION_LIMIT:
            if rest % candidate == 0:
                factors.append(candidate)
                rest //= candidate
                if rest % candidate == 0:
                    raise ParameterError(
                        f"modulus {value} has repeated factor {candidate}"
                    )
            candidate += 1 if candidate == 2 else 2
        if rest > 1:
            if not is_prime(rest):
                raise ParameterError(
                    f"cannot factor modulus {value} automatically: remainder "
                    f"{rest} is composite with factors above {_TRIAL_DIVISION_LIMIT}; "
                    "write it as an explicit product, e.g. \"q1*q2\""
                )
            factors.append(rest)
        return cls.from_factors(factors)

    @cached_property
    def value(self) -> int:
        v = 1
        for q in self.factors:
            v *= q
        return v

    @cached_property
    def residue_bits(self) -> int:
        """Sum over factors of ceil(log2 q), the information bits per element."""
        return sum((q - 1).bit_length() for q in self.factors)

    @cached_property
    def _qs_np(self) -> np.ndarray:
        """Factor column vector used to broadcast modular reductions."""
        a = np.array(self.factors, dtype=np.uint64).reshape(len(self.factors), 1)
        a.setflags(write=False)
        return a

    @cached_property
    def _crt_weights(self) -> tuple[int, ...]:
        # weight_i = (value/q_i) * ((value/q_i)^-1 mod q_i), so that
        # lift(x) = sum(r_i * weight_i) mod value.
        out = []
        for q in self.factors:
            rest = self.value // q
            out.append(rest * pow(rest, -1, q))
        return tuple(out)

    def element(self, value: int) -> "FieldElement":
        """Reduce an integer into the residue representation."""
        if not isinstance(value, int):
            raise ParameterError(f"expected an integer, got {value!r}")
        return FieldElement(self, tuple(value % q for q in self.factors))

    def one(self) -> "FieldElement":
        return self.element(1)

    def __str__(self) -> str:
        return "*".join(str(q) for q in self.factors)


def parse_modulus(text: str) -> Modulus:
    """Parse "210" or "2*3*5*7" into a Modulus."""
    text = text.strip()
    try:
        parts = [int(part) for part in text.split("*")]
    except ValueError as exc:
        raise ParameterError(f"bad modulus text {text[:64]!r}") from exc
    return Modulus.from_factors(parts) if len(parts) > 1 else Modulus.from_int(parts[0])


def byte_words(raw: bytes, width: int, order: str) -> np.ndarray:
    """`raw` read as unsigned `width`-byte words in byte order `order`
    ("<" or ">"): a view for 1-, 2- and 4-byte words, and a copy padded
    to 4 bytes for 3-byte words."""
    if width != 3:
        return np.frombuffer(raw, dtype=f"{order}u{width}")
    padded = np.zeros((len(raw) // 3, 4), dtype=np.uint8)
    low = slice(1, 4) if order == ">" else slice(0, 3)
    padded[:, low] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
    return padded.view(f"{order}u4").ravel()


def random_residues(modulus: Modulus, count: int, rng) -> np.ndarray:
    """`count` uniform elements of Z_q as a (factors, count) uint64 array.

    Consumes the bytes that `count` rounds of `rng.randrange(f) for f in
    factors` consume on a DeterministicRandomSource, in the same order: an
    attempt for factor f takes the next ceil(k/8) bytes big-endian, keeps
    their top k = f.bit_length() bits and is retried while that is >= f.
    The bytes come from a few `rng.randbytes` calls, each no longer than
    the attempts still owed need at the least, so nothing past the last
    attempt is read.  An attempt keeps its top k bits exactly when its raw
    word is below f << (8*ceil(k/8) - k), so only accepted words are
    shifted.  With one factor every read is a whole number of attempts and
    a round is one `compress` over the read's words.  With several, each
    attempt costs one compare against its factor's bound, and the accepted
    words are kept as bytes, in order, and shifted per factor at the end.
    When every word is one byte each is compared as an int; otherwise as
    big-endian bytes, and a partial attempt at the end of a read is
    carried into the next.  Refuses past EVAL_BUDGET before the first read.
    """
    factors = modulus.factors
    check_budget(len(factors) * count, RESIDUE_PEAK, "residues")
    widths = [(q.bit_length() + 7) // 8 for q in factors]
    shifts = [8 * w - q.bit_length() for q, w in zip(factors, widths)]
    bounds = [q << s for q, s in zip(factors, shifts)]
    if len(factors) == 1:
        (width,), (shift,), (bound,) = widths, shifts, bounds
        out = [np.zeros(0, dtype=np.uint64)]
        need = count
        while need:
            words = byte_words(rng.randbytes(need * width), width, ">")
            out.append(words.compress(words < bound) >> shift)
            need -= len(out[-1])
        return np.concatenate(out)[None, :]
    # Each accepted word is kept whole, so the bytes still owed are exact.
    span = sum(widths)
    total = count * span
    kept = bytearray()
    if max(widths) == 1:
        keep = kept.append
        limits = cycle(bounds)
        bound = next(limits)
        while len(kept) < total:
            for b in rng.randbytes(total - len(kept)):
                if b < bound:
                    keep(b)
                    bound = next(limits)
    else:
        specs = cycle((w, b.to_bytes(w, "big")) for w, b in zip(widths, bounds))
        width, bound = next(specs)
        carry = b""
        while len(kept) < total:
            blob = carry + rng.randbytes(total - len(kept) - len(carry))
            pos = 0
            while pos + width <= len(blob):
                word = blob[pos : pos + width]
                pos += width
                if word < bound:
                    kept += word
                    width, bound = next(specs)
            carry = blob[pos:]
    rounds = np.frombuffer(kept, dtype=np.uint8).reshape(count, span)
    out = np.empty((len(factors), count), dtype=np.uint64)
    start = 0
    for row, width, shift in zip(out, widths, shifts):
        row[:] = byte_words(rounds[:, start : start + width].tobytes(), width, ">") >> shift
        start += width
    return out


@dataclass(frozen=True)
class FieldElement:
    """One residue per prime factor of the modulus."""

    modulus: Modulus
    residues: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.residues) != len(self.modulus.factors):
            raise ParameterError(
                f"expected {len(self.modulus.factors)} residues, "
                f"got {len(self.residues)}"
            )
        for r, q in zip(self.residues, self.modulus.factors):
            if not isinstance(r, int) or not 0 <= r < q:
                raise ParameterError(f"residue {shown(r)} out of range for factor {q}")

    def _check_same(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise ParameterError(f"cannot combine FieldElement with {other!r}")
        if other.modulus != self.modulus:
            raise ParameterError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}"
            )

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        return FieldElement(
            self.modulus,
            tuple(
                (a + b) % q
                for a, b, q in zip(self.residues, other.residues, self.modulus.factors)
            ),
        )

    def lift(self) -> int:
        """Map back to the unique integer in [0, modulus.value)."""
        total = 0
        for r, w in zip(self.residues, self.modulus._crt_weights):
            total += r * w
        return total % self.modulus.value


class FieldVector:
    """A fixed-length vector of field elements backed by a numpy array.

    The payload has shape (num_factors, length) with dtype uint64 and is
    treated as immutable: operations return new vectors.  Factor values
    stay below 2**31, so the sum of two residues never overflows 64-bit
    intermediates.
    """

    __slots__ = ("modulus", "data")

    def __init__(self, modulus: Modulus, data: np.ndarray, *, validate: bool = True):
        arr = np.asarray(data, dtype=np.uint64)
        if arr.ndim != 2 or arr.shape[0] != len(modulus.factors):
            raise ParameterError(
                f"expected shape ({len(modulus.factors)}, n), got {arr.shape}"
            )
        if validate and arr.size and not (arr < modulus._qs_np).all():
            raise ParameterError("vector entry out of range for its factor")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FieldVector is immutable")

    @classmethod
    def _raw(cls, modulus: Modulus, data: np.ndarray) -> "FieldVector":
        return cls(modulus, data, validate=False)

    @classmethod
    def random(cls, modulus: Modulus, length: int, rng) -> "FieldVector":
        """Uniform entries, drawn factor by factor, refused past EVAL_BUDGET."""
        check_budget(len(modulus.factors) * length, RESIDUE_PEAK, "a vector")
        rows = [random_residues(Modulus.prime(q), length, rng) for q in modulus.factors]
        return cls._raw(modulus, np.concatenate(rows))

    def __len__(self) -> int:
        return self.data.shape[1]

    def __getitem__(self, index: int) -> FieldElement:
        if not 0 <= index < len(self):
            raise ParameterError(f"index {shown(index)} out of range")
        return FieldElement(self.modulus, tuple(int(v) for v in self.data[:, index]))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def _check_same(self, other: "FieldVector") -> None:
        if not isinstance(other, FieldVector):
            raise ParameterError(f"cannot combine FieldVector with {other!r}")
        if other.modulus != self.modulus or len(other) != len(self):
            raise ParameterError("vector modulus or length mismatch")

    def __add__(self, other: "FieldVector") -> "FieldVector":
        self._check_same(other)
        qs = self.modulus._qs_np
        return FieldVector._raw(self.modulus, (self.data + other.data) % qs)

    def lift_all(self) -> list[int]:
        return [e.lift() for e in self]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldVector)
            and other.modulus == self.modulus
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self) -> str:
        return f"FieldVector(mod {self.modulus}, len {len(self)})"


def primorial(n: int) -> Modulus:
    """Product of the first n primes as a Modulus (n=1 gives 2)."""
    if n < 1:
        raise ParameterError(f"primorial index must be >= 1, got {shown(n)}")
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if is_prime(candidate):
            primes.append(candidate)
        candidate += 1
    return Modulus(tuple(primes))


def minimize_grid(domain_size: int, row_cost: int, col_cost: int) -> tuple[int, int, int]:
    """Minimize rows*row_cost + cols*col_cost subject to rows*cols >= domain_size.

    N < 2**64; costs are positive integers.  Only rows r or ceil(N/v) with
    r, v <= ceil(sqrt(N)) can be optimal, with cols ceil(N/rows).  A row
    count's cost is at least g(r) = r*row_cost + N*col_cost/r, least at
    r* = sqrt(N*col_cost/row_cost), so only those in [lo, hi], where g is
    at most the cost next to r*, are scanned.  Ties prefer fewer rows.
    """
    check_range("domain size", domain_size, 1, 2 ** 64)
    if row_cost < 1 or col_cost < 1:
        raise ParameterError(f"grid costs {shown(row_cost)}, {shown(col_cost)} must be positive")
    n = domain_size

    def cost(r: int) -> int:
        return r * row_cost + -(-n // r) * col_cost

    near = max(1, min(n - 1, isqrt(n * col_cost // row_cost)))
    bound = min(cost(near), cost(near + 1))
    spread = isqrt(bound * bound - 4 * row_cost * n * col_cost) + 1
    lo = max(1, (bound - spread) // (2 * row_cost))
    hi = min(n, (bound + spread) // (2 * row_cost) + 1)
    root = isqrt(n) + 1
    cands = set(range(lo, min(hi, root) + 1))
    cands.update(-(-n // v) for v in range(max(1, n // hi), min(root, n // lo + 1) + 1))
    rows = min(cands, key=lambda r: (cost(r), r))
    return rows, -(-n // rows), cost(rows)
