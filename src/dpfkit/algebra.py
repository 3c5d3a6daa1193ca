"""Residue arithmetic over square-free moduli.

A modulus is an ordered tuple of distinct primes; its value is their
product.  Elements are stored as one residue per prime factor, so a
prime modulus is simply the single-factor case and composite moduli
never need special handling anywhere else in the package.  Values can
be mapped back to integers in [0, value) through the Chinese remainder
theorem (`FieldElement.lift`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError

MAX_FACTOR = 2 ** 31
MAX_VALUE = 2 ** 63

# Deterministic Miller-Rabin witnesses for all n < 3.3 * 10**24, which
# comfortably covers the 63-bit modulus cap.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Automatic factoring stops trial division here; larger prime factors of a
# composite must be supplied explicitly as "q1*q2*..." text.
_TRIAL_DIVISION_LIMIT = 1 << 20


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2**64."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
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
        if not self.factors:
            raise ParameterError("modulus needs at least one prime factor")
        prev = 0
        for q in self.factors:
            if not isinstance(q, int):
                raise ParameterError(f"prime factor {q!r} is not an integer")
            if q <= prev:
                raise ParameterError(
                    "prime factors must be strictly increasing "
                    f"(got {self.factors})"
                )
            if q >= MAX_FACTOR:
                raise ParameterError(f"prime factor {q} exceeds the 2**31 cap")
            if not is_prime(q):
                raise ParameterError(f"modulus factor {q} is not prime")
            prev = q
        value = 1
        for q in self.factors:
            value *= q
        if value >= MAX_VALUE:
            raise ParameterError(f"modulus value {value} exceeds the 2**63 cap")

    @classmethod
    def prime(cls, q: int) -> "Modulus":
        return cls((q,))

    @classmethod
    def from_factors(cls, factors: Iterable[int]) -> "Modulus":
        fs = sorted(factors)
        if len(fs) != len(set(fs)):
            raise ParameterError(f"repeated prime factor in {fs}")
        return cls(tuple(fs))

    @classmethod
    def from_int(cls, value: int) -> "Modulus":
        """Factor a plain integer modulus by trial division.

        Rejects repeated factors and any factor at or above 2**31.  Trial
        division stops at 2**20; a composite remainder beyond that point
        cannot be attributed to in-range factors automatically and must be
        written in explicit "q1*q2" form instead.
        """
        if value < 2:
            raise ParameterError(f"modulus must be >= 2, got {value}")
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

    def from_residues(self, residues: Sequence[int]) -> "FieldElement":
        return FieldElement(self, tuple(residues))

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def random_element(self, rng) -> "FieldElement":
        return FieldElement(self, tuple(rng.randrange(q) for q in self.factors))

    def __str__(self) -> str:
        return "*".join(str(q) for q in self.factors)


def parse_modulus(text: str) -> Modulus:
    """Parse "210" or "2*3*5*7" into a Modulus."""
    text = text.strip()
    if "*" in text:
        try:
            parts = [int(p.strip()) for p in text.split("*")]
        except ValueError as exc:
            raise ParameterError(f"bad modulus text {text!r}") from exc
        return Modulus.from_factors(parts)
    try:
        value = int(text)
    except ValueError as exc:
        raise ParameterError(f"bad modulus text {text!r}") from exc
    return Modulus.from_int(value)


def random_residues(modulus: Modulus, count: int, rng) -> np.ndarray:
    """`count` uniform elements of Z_q as a (factors, count) uint64 array.

    Consumes the bytes that `count` rounds of `rng.randrange(f) for f in
    factors` consume on a DeterministicRandomSource, in the same order: an
    attempt for factor f takes the next ceil(k/8) bytes big-endian, keeps
    their top k = f.bit_length() bits and is retried while that is >= f.
    The bytes come from a few `rng.randbytes` calls, each no longer than
    the attempts still owed need at the least, so nothing past the last
    attempt is read.  Which attempt each byte belongs to is a prefix scan
    over a small automaton whose state is (factor, bytes left in the
    attempt).
    """
    factors = modulus.factors
    nf = len(factors)
    widths = [(q.bit_length() + 7) // 8 for q in factors]
    width_of = np.array(widths)
    span = max(widths)
    fs = np.arange(nf)
    out = [np.zeros(0, dtype=np.uint64)]
    factor, carry, need = 0, b"", count * nf
    while need:
        cycles, extra = divmod(need, nf)
        owed = cycles * sum(widths)
        owed += sum(widths[(factor + j) % nf] for j in range(extra))
        blob = carry + rng.randbytes(owed - len(carry))
        size = len(blob)
        padded = np.frombuffer(blob + bytes(span), dtype=np.uint8).astype(np.uint64)
        vals = np.zeros((nf, size), dtype=np.uint64)
        for f, (q, w) in enumerate(zip(factors, widths)):
            for t in range(w):
                vals[f] = (vals[f] << np.uint64(8)) | padded[t : t + size]
            vals[f] >>= np.uint64(8 * w - q.bit_length())
        accept = vals < np.array(factors, dtype=np.uint64)[:, None]
        # State s = factor * span + bytes still to skip; steps[i] maps the
        # state before byte i to the state after it.
        steps = np.tile(np.arange(nf * span) - 1, (size, 1))
        after_start = (fs[:, None] + accept) % nf * span + (width_of - 1)[:, None]
        steps[:, fs * span] = after_start.T
        shift = 1
        while shift < size:
            steps[shift:] = np.take_along_axis(steps[shift:], steps[:-shift], axis=1)
            shift *= 2
        state = np.concatenate([[factor * span], steps[:-1, factor * span]])
        starts = np.flatnonzero(state % span == 0)
        owner = state[starts] // span
        whole = starts + width_of[owner] <= size
        if not whole[-1]:
            carry, factor = blob[starts[-1]:], int(owner[-1])
        else:
            carry, factor = b"", int(steps[-1, factor * span] // span)
        starts, owner = starts[whole], owner[whole]
        kept = accept[owner, starts]
        out.append(vals[owner[kept], starts[kept]])
        need -= int(kept.sum())
    return np.concatenate(out).reshape(count, nf).T


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
                raise ParameterError(f"residue {r!r} out of range for factor {q}")

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

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        return FieldElement(
            self.modulus,
            tuple(
                (a - b) % q
                for a, b, q in zip(self.residues, other.residues, self.modulus.factors)
            ),
        )

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check_same(other)
        return FieldElement(
            self.modulus,
            tuple(
                (a * b) % q
                for a, b, q in zip(self.residues, other.residues, self.modulus.factors)
            ),
        )

    def __neg__(self) -> "FieldElement":
        return FieldElement(
            self.modulus,
            tuple((-a) % q for a, q in zip(self.residues, self.modulus.factors)),
        )

    @property
    def is_zero(self) -> bool:
        return all(r == 0 for r in self.residues)

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
    stay below 2**31, so sums and products of two residues never overflow
    64-bit intermediates.
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
    def zeros(cls, modulus: Modulus, length: int) -> "FieldVector":
        return cls._raw(
            modulus, np.zeros((len(modulus.factors), length), dtype=np.uint64)
        )

    @classmethod
    def unit(
        cls, modulus: Modulus, length: int, index: int, value: FieldElement
    ) -> "FieldVector":
        """Vector that is `value` at `index` and zero elsewhere."""
        if not 0 <= index < length:
            raise ParameterError(f"index {index} out of range for length {length}")
        arr = np.zeros((len(modulus.factors), length), dtype=np.uint64)
        arr[:, index] = value.residues
        return cls._raw(modulus, arr)

    @classmethod
    def random(cls, modulus: Modulus, length: int, rng) -> "FieldVector":
        """Uniform entries, drawn factor by factor."""
        rows = [random_residues(Modulus.prime(q), length, rng) for q in modulus.factors]
        return cls._raw(modulus, np.concatenate(rows))

    @classmethod
    def from_elements(
        cls, modulus: Modulus, elements: Sequence[FieldElement]
    ) -> "FieldVector":
        arr = np.empty((len(modulus.factors), len(elements)), dtype=np.uint64)
        for i, e in enumerate(elements):
            if e.modulus != modulus:
                raise ParameterError("mixed moduli in vector")
            arr[:, i] = e.residues
        return cls._raw(modulus, arr)

    def __len__(self) -> int:
        return self.data.shape[1]

    def __getitem__(self, index: int) -> FieldElement:
        if not 0 <= index < len(self):
            raise ParameterError(f"index {index} out of range")
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

    def __sub__(self, other: "FieldVector") -> "FieldVector":
        self._check_same(other)
        qs = self.modulus._qs_np
        return FieldVector._raw(self.modulus, (self.data + (qs - other.data)) % qs)

    def __mul__(self, other) -> "FieldVector":
        qs = self.modulus._qs_np
        if isinstance(other, FieldElement):
            if other.modulus != self.modulus:
                raise ParameterError("scalar modulus mismatch")
            col = np.array(other.residues, dtype=np.uint64).reshape(-1, 1)
            return FieldVector._raw(self.modulus, (self.data * col) % qs)
        self._check_same(other)
        return FieldVector._raw(self.modulus, (self.data * other.data) % qs)

    def __neg__(self) -> "FieldVector":
        qs = self.modulus._qs_np
        return FieldVector._raw(self.modulus, (qs - self.data) % qs)

    def sum(self) -> FieldElement:
        if len(self) == 0:
            return self.modulus.zero()
        qs = self.modulus._qs_np[:, 0]
        totals = self.data.sum(axis=1) % qs
        return FieldElement(self.modulus, tuple(int(v) for v in totals))

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


@lru_cache(maxsize=None)
def all_combinations(p: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of {0..p-1} in rank (lexicographic) order."""
    return tuple(itertools.combinations(range(p), k))


@lru_cache(maxsize=None)
def member_columns(p: int, k: int, party: int) -> tuple[int, ...]:
    """Ranks of the k-subsets that contain `party`, in increasing order."""
    if not 0 <= party < p:
        raise ParameterError(f"party {party} out of range for p={p}")
    return tuple(j for j, s in enumerate(all_combinations(p, k)) if party in s)


def primorial(n: int) -> Modulus:
    """Product of the first n primes as a Modulus (n=1 gives 2)."""
    if n < 1:
        raise ParameterError(f"primorial index must be >= 1, got {n}")
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if is_prime(candidate):
            primes.append(candidate)
        candidate += 1
    return Modulus(tuple(primes))


def minimize_grid(domain_size: int, row_cost, col_cost) -> tuple[int, int, object]:
    """Minimize rows*row_cost + cols*col_cost subject to rows*cols >= domain_size.

    Only rows of the form r or ceil(domain_size/v) with r, v <= ceil(sqrt(N))
    can be optimal (for fixed rows the best cols is ceil(N/rows), and the
    map r -> ceil(N/r) folds every candidate above sqrt(N) onto one below).
    Ties prefer fewer rows.  Costs may be int or Fraction; the winning cost
    is returned unchanged.
    """
    if domain_size < 1:
        raise ParameterError(f"domain size must be >= 1, got {domain_size}")
    root = isqrt(domain_size) + 1
    cands = set(range(1, root + 1))
    cands.update(-(-domain_size // v) for v in range(1, root + 1))
    best = None
    for r in sorted(cands):
        v = -(-domain_size // r)
        cost = r * row_cost + v * col_cost
        if best is None or cost < best[2]:
            best = (r, v, cost)
    return best
