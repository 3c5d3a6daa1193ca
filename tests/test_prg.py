"""Seed expansion: golden vectors, rejection sampling, deterministic RNG."""

import hashlib
import random
from itertools import cycle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpfkit import prg
from dpfkit.algebra import FieldVector, Modulus, parse_modulus, random_residues
from dpfkit.errors import GuardError, ParameterError
from dpfkit.prg import (
    PRG_SHAKE128,
    PRG_TEST_LCG,
    DeterministicRandomSource,
    PrgSpec,
    _sample_residues,
    _stream,
    expand,
    expansion_count,
    sample_seeds,
)

SEED = bytes(range(1, 17))

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def _lcg_bytes(seed: bytes, factor_index: int, nbytes: int) -> bytes:
    """Reference stream, kept independent of the implementation."""
    state = int.from_bytes(seed[:8].ljust(8, b"\0"), "little")
    state ^= (0x9E3779B97F4A7C15 * (factor_index + 1)) & _MASK64
    out = bytearray()
    while len(out) < nbytes:
        state = (state * _LCG_MULT + _LCG_INC) & _MASK64
        out += state.to_bytes(8, "little")
    return bytes(out[:nbytes])


def _shake_bytes(seed: bytes, factor_index: int, nbytes: int) -> bytes:
    return hashlib.shake_128(seed + b"\x47" + bytes([factor_index])).digest(nbytes)


def _reference_residues(stream, q: int, n: int) -> list[int]:
    """Rejection sampling over little-endian masked words, one at a time."""
    bits = (q - 1).bit_length()
    width = (bits + 7) // 8
    mask = (1 << bits) - 1
    values = []
    pos = 0
    while len(values) < n:
        word = int.from_bytes(stream(pos + width)[pos : pos + width], "little") & mask
        pos += width
        if word < q:
            values.append(word)
    return values


@pytest.fixture
def stream_calls(monkeypatch):
    """The arguments of every `_stream` call the sampler makes."""
    calls = []

    def counting_stream(*args):
        calls.append(args)
        return _stream(*args)

    monkeypatch.setattr(prg, "_stream", counting_stream)
    return calls


class TestGoldenVectors:
    @pytest.mark.parametrize(
        "q,expected",
        [
            (5, [3, 2, 2, 2, 2, 3]),
            (257, [211, 130, 33, 13, 61, 95]),
            (
                2 ** 31 - 1,
                [1786943187, 1403141506, 1711124838, 973955105, 1214204477, 1527105229],
            ),
        ],
    )
    def test_lcg(self, q, expected):
        spec = PrgSpec(PRG_TEST_LCG, 128, 6, Modulus.prime(q))
        assert expand(SEED, spec).lift_all() == expected

    def test_lcg_second_factor_uses_its_own_stream(self):
        spec = PrgSpec(PRG_TEST_LCG, 128, 6, Modulus.from_factors([2, 3]))
        out = expand(SEED, spec)
        assert [out[i].residues[1] for i in range(6)] == [2, 0, 0, 1, 1, 1]

    def test_shake(self):
        spec = PrgSpec(PRG_SHAKE128, 128, 6, Modulus.prime(5))
        assert expand(SEED, spec).lift_all() == [1, 2, 0, 1, 3, 4]
        spec = PrgSpec(PRG_SHAKE128, 128, 4, Modulus.prime(257))
        assert expand(SEED, spec).lift_all() == [102, 199, 49, 80]


@pytest.mark.parametrize("algorithm,stream_fn", [
    (PRG_SHAKE128, _shake_bytes),
    (PRG_TEST_LCG, _lcg_bytes),
])
@pytest.mark.parametrize("factors", [(7,), (2, 3, 5), (257,), (2 ** 31 - 1,)])
def test_expand_matches_reference_sampler(algorithm, stream_fn, factors):
    modulus = Modulus.from_factors(factors)
    spec = PrgSpec(algorithm, 128, 40, modulus)
    out = expand(SEED, spec)
    for fi, q in enumerate(modulus.factors):
        expected = _reference_residues(
            lambda n, fi=fi: stream_fn(SEED, fi, n), q, 40
        )
        assert [out[i].residues[fi] for i in range(40)] == expected


@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 4096, 1 << 20])
def test_lcg_stream_matches_the_stepwise_reference(length):
    # The stream is computed in closed form; the reference takes one step per word.
    for seed in (b"\x9c", SEED[:8], SEED):
        for factor_index in range(4):
            expected = _lcg_bytes(seed, factor_index, length)
            assert _stream(PRG_TEST_LCG, seed, factor_index, length) == expected


@pytest.mark.parametrize("algorithm,stream_fn,first_bytes", [
    (PRG_SHAKE128, _shake_bytes, 2590),
    (PRG_TEST_LCG, _lcg_bytes, 2126),
])
def test_expand_after_a_sampling_shortfall_matches_reference(
    stream_calls, algorithm, stream_fn, first_bytes
):
    # For these seeds the first stream prefix the sampler reads holds fewer
    # than 1000 words below 257, so it has to squeeze a longer one.
    seed = first_bytes.to_bytes(2, "little") + bytes(range(3, 17))
    out = expand(seed, PrgSpec(algorithm, 128, 1000, Modulus.prime(257)))
    assert len(stream_calls) == 2
    stream = stream_fn(seed, 0, 1 << 14)
    assert out.lift_all() == _reference_residues(lambda n: stream[:n], 257, 1000)


@pytest.mark.parametrize("algorithm,stream_fn", [
    (PRG_SHAKE128, _shake_bytes),
    (PRG_TEST_LCG, _lcg_bytes),
])
def test_a_rejection_among_the_first_words_reuses_the_prefix(stream_calls, algorithm, stream_fn):
    # For this seed one of the first 1000 words is at or above 65521, so the
    # all-accepted shortcut fails and the words already squeezed are gathered.
    seed = bytes([6]) + bytes(range(2, 17))
    stream = stream_fn(seed, 0, 1 << 13)
    head = [int.from_bytes(stream[i : i + 2], "little") for i in range(0, 2000, 2)]
    assert max(head) >= 65521
    out = expand(seed, PrgSpec(algorithm, 128, 1000, Modulus.prime(65521)))
    assert len(stream_calls) == 1
    assert out.lift_all() == _reference_residues(lambda n: stream[:n], 65521, 1000)


@pytest.mark.parametrize("algorithm,stream_fn", [
    (PRG_SHAKE128, _shake_bytes),
    (PRG_TEST_LCG, _lcg_bytes),
])
@pytest.mark.parametrize("q", [2, 3, 251, 257, 65521, 65537, 2 ** 24 + 43, 2 ** 31 - 1])
@pytest.mark.parametrize("n", [1, 7, 300, 5243])
def test_every_word_width_matches_reference_sampler(algorithm, stream_fn, q, n):
    """Words of 1 to 4 bytes, with and without the all-accepted head."""
    width = ((q - 1).bit_length() + 7) // 8
    stream = stream_fn(SEED, 0, (4 * n + 64) * width)

    def prefix(length):
        assert length <= len(stream), "reference ran past its stream"
        return stream[:length]

    expected = _reference_residues(prefix, q, n)
    assert _sample_residues(algorithm, SEED, 0, q, n).tolist() == expected
    assert expand(SEED, PrgSpec(algorithm, 128, n, Modulus.prime(q))).lift_all() == expected


@pytest.mark.parametrize("algorithm,stream_fn,q,first_bytes", [
    (PRG_SHAKE128, _shake_bytes, 5, 133),
    (PRG_SHAKE128, _shake_bytes, 65537, 1345),
    (PRG_SHAKE128, _shake_bytes, 2 ** 24 + 43, 743),
    (PRG_TEST_LCG, _lcg_bytes, 3, 2820),
    (PRG_TEST_LCG, _lcg_bytes, 65537, 555),
    (PRG_TEST_LCG, _lcg_bytes, 2 ** 24 + 43, 1895),
])
def test_a_short_first_prefix_of_one_three_or_four_byte_words_is_doubled(
    stream_calls, algorithm, stream_fn, q, first_bytes
):
    # For these seeds the first prefix holds fewer than 1000 accepted words,
    # so the filter runs again on a second, doubled prefix.
    seed = first_bytes.to_bytes(2, "little") + bytes(range(3, 17))
    out = _sample_residues(algorithm, seed, 0, q, 1000)
    assert len(stream_calls) == 2
    stream = stream_fn(seed, 0, 1 << 15)
    assert out.tolist() == _reference_residues(lambda n: stream[:n], q, 1000)


# One to four bytes per word, acceptance rates from just above 1/2 to 1;
# 131 (0.51), 40961 (0.625, two-byte words) and 2**30+3 (0.5) reject many.
SAMPLER_PRIMES = [2, 3, 5, 7, 127, 131, 251, 257, 4093, 40961, 65521, 65537, 131071,
                  8388593, 16777259, 1073741827, 2 ** 31 - 1]


@given(
    st.sampled_from([(PRG_SHAKE128, _shake_bytes), (PRG_TEST_LCG, _lcg_bytes)]),
    st.sampled_from(SAMPLER_PRIMES),
    st.integers(min_value=1, max_value=700),
    st.binary(min_size=16, max_size=16),
)
def test_sampler_matches_reference_on_random_seeds(prg_pair, q, n, seed):
    """Either side of the 256-word shortcut, for every word width."""
    algorithm, stream_fn = prg_pair
    width = ((q - 1).bit_length() + 7) // 8
    stream = stream_fn(seed, 0, (8 * n + 64) * width)
    expected = _reference_residues(lambda length: stream[:length], q, n)
    out = _sample_residues(algorithm, seed, 0, q, n)
    assert out.dtype.itemsize >= width and out.tolist() == expected


# Words of one to four bytes.  129 accepts just over half of its words but
# is no prime, so it runs through the sampler alone.
FIRST_WORD_MODULI = [2, 3, 5, 7, 129, 251, 257, 65521, 65537, 2 ** 24 + 43, 2 ** 31 - 1]
FIRST_LENGTHS = [1, 2, 9, 300, 1001, 5999]


def _firsts(n: int, label: str) -> list[int]:
    """0, 1, 2, n//2, n-1 and three random indices, all below n."""
    rnd = random.Random(label)
    picks = {0, 1, 2, n // 2, n - 1, *(rnd.randrange(n) for _ in range(3))}
    return sorted(f for f in picks if f < n)


@pytest.mark.parametrize("algorithm", [PRG_SHAKE128, PRG_TEST_LCG])
@pytest.mark.parametrize("q", FIRST_WORD_MODULI)
@pytest.mark.parametrize("n", FIRST_LENGTHS)
def test_sampling_from_first_matches_the_sliced_sample(algorithm, q, n):
    whole = _sample_residues(algorithm, SEED, 0, q, n)
    for f in _firsts(n, f"{algorithm} {q} {n}"):
        assert _sample_residues(algorithm, SEED, 0, q, n, f).tolist() == whole[f:].tolist()


@pytest.mark.parametrize("algorithm", [PRG_SHAKE128, PRG_TEST_LCG])
@pytest.mark.parametrize("modulus_text", ["131", "65537", "2*3*5*7", "3*65537*2147483647"])
@pytest.mark.parametrize("n", FIRST_LENGTHS)
def test_expand_from_first_matches_the_sliced_expansion(algorithm, modulus_text, n):
    spec = PrgSpec(algorithm, 128, n, parse_modulus(modulus_text))
    seed = random.Random(modulus_text).randbytes(16)
    whole = expand(seed, spec).data
    for f in _firsts(n, f"{algorithm} {modulus_text} {n}"):
        part = expand(seed, spec, first=f)
        assert part.modulus == spec.modulus
        assert part.data.tolist() == whole[:, f:].tolist()


@pytest.mark.parametrize("algorithm,stream_fn,q,first_bytes", [
    (PRG_SHAKE128, _shake_bytes, 257, 2590),
    (PRG_TEST_LCG, _lcg_bytes, 257, 2126),
    (PRG_SHAKE128, _shake_bytes, 5, 133),
    (PRG_SHAKE128, _shake_bytes, 65537, 1345),
    (PRG_SHAKE128, _shake_bytes, 2 ** 24 + 43, 743),
    (PRG_TEST_LCG, _lcg_bytes, 3, 2820),
    (PRG_TEST_LCG, _lcg_bytes, 65537, 555),
    (PRG_TEST_LCG, _lcg_bytes, 2 ** 24 + 43, 1895),
])
def test_a_doubled_prefix_serves_every_first(stream_calls, algorithm, stream_fn, q, first_bytes):
    # The seeds of the two shortfall tests above: the first prefix holds
    # fewer than 1000 accepted words, whatever the first one returned.
    seed = first_bytes.to_bytes(2, "little") + bytes(range(3, 17))
    stream = stream_fn(seed, 0, 1 << 15)
    expected = _reference_residues(lambda n: stream[:n], q, 1000)
    for f in _firsts(1000, f"{algorithm} {q} {first_bytes}"):
        stream_calls.clear()
        assert _sample_residues(algorithm, seed, 0, q, 1000, f).tolist() == expected[f:]
        assert len(stream_calls) == 2


@pytest.mark.parametrize("n,first", [(1000, 40), (1000, 500), (1000, 999), (5999, 5000)])
def test_passes_beyond_the_estimate_before_first_are_counted(monkeypatch, n, first):
    # Every word of this stream passes, so for 131, which accepts about half
    # of the words, the first-th pass comes far earlier than expected.
    monkeypatch.setattr(prg, "_stream", lambda alg, seed, fi, length: bytes(
        i % 131 for i in range(length)
    ))
    out = _sample_residues(PRG_SHAKE128, SEED, 0, 131, n, first)
    assert out.tolist() == [i % 131 for i in range(first, n)]


def test_expansion_is_prefix_stable():
    modulus = Modulus.from_factors([3, 257])
    short = expand(SEED, PrgSpec(PRG_SHAKE128, 128, 10, modulus))
    long = expand(SEED, PrgSpec(PRG_SHAKE128, 128, 64, modulus))
    assert long.lift_all()[:10] == short.lift_all()


def test_different_seeds_and_lengths():
    spec = PrgSpec(PRG_SHAKE128, 64, 8, Modulus.prime(13))
    a = expand(b"\x01" * 8, spec)
    b = expand(b"\x02" * 8, spec)
    assert a.lift_all() != b.lift_all()
    assert all(0 <= v < 13 for v in a.lift_all())


def test_expansion_counter_increments():
    spec = PrgSpec(PRG_SHAKE128, 128, 4, Modulus.prime(5))
    before = expansion_count()
    expand(SEED, spec)
    expand(SEED, spec)
    assert expansion_count() == before + 2


class TestSpecValidation:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ParameterError):
            PrgSpec(7, 128, 4, Modulus.prime(5))

    def test_rejects_bad_lambda(self):
        with pytest.raises(ParameterError):
            PrgSpec(PRG_SHAKE128, 12, 4, Modulus.prime(5))
        with pytest.raises(ParameterError):
            PrgSpec(PRG_SHAKE128, 0, 4, Modulus.prime(5))

    def test_rejects_empty_output(self):
        with pytest.raises(ParameterError):
            PrgSpec(PRG_SHAKE128, 128, 0, Modulus.prime(5))

    @pytest.mark.parametrize("first", [-1, 4, 5, 2 ** 40])
    def test_first_outside_the_output_is_refused(self, first):
        spec = PrgSpec(PRG_SHAKE128, 128, 4, Modulus.prime(5))
        with pytest.raises(ParameterError, match="first element"):
            expand(SEED, spec, first=first)

    def test_seed_length_enforced(self):
        spec = PrgSpec(PRG_SHAKE128, 128, 4, Modulus.prime(5))
        with pytest.raises(ParameterError):
            expand(b"short", spec)
        with pytest.raises(ParameterError):
            expand("not bytes", spec)


def _seed_by_seed(count: int, lambda_bits: int, rng) -> tuple[list[bytes], int]:
    """`sample_seeds` as a loop over every candidate, one read each, its
    reference: all-zero and repeated candidates are skipped.  Returns the
    seeds and the number skipped."""
    seen: dict[bytes, None] = {}
    skipped = 0
    while len(seen) < count:
        seed = rng.randbytes(lambda_bits // 8)
        if any(seed) and seed not in seen:
            seen[seed] = None
        else:
            skipped += 1
    return list(seen), skipped


class TestSampleSeeds:
    @pytest.mark.parametrize(
        "bits,count",
        [(8, 0), (8, 1), (8, 80), (8, 255), (16, 1), (16, 3000), (128, 0), (128, 1), (128, 3000)],
    )
    def test_reads_the_stream_like_one_read_per_seed(self, bits, count):
        # At 8 and 16 bits zero and repeated candidates come up, so the
        # seeds are gathered over several reads; at 128 bits one suffices.
        skipped = 0
        for label in range(10):
            ref = DeterministicRandomSource(f"seeds/{bits}/{count}/{label}")
            got = DeterministicRandomSource(f"seeds/{bits}/{count}/{label}")
            want, skips = _seed_by_seed(count, bits, ref)
            out = sample_seeds(count, bits, got)
            assert out.dtype == np.uint8 and out.shape == (count, bits // 8)
            assert [seed.tobytes() for seed in out] == want
            assert got.randbytes(32) == ref.randbytes(32)  # same bytes consumed
            skipped += skips
        assert (skipped > 0) == (bits < 128 and count >= 80)

    def test_more_seeds_than_exist_are_refused_before_a_read(self, refusing_rng):
        with pytest.raises(ParameterError, match="3000 cells exceed the 255 1-byte seeds"):
            sample_seeds(3000, 8, refusing_rng)
        with pytest.raises(ParameterError, match="256 cells exceed the 255 1-byte seeds"):
            sample_seeds(256, 8, refusing_rng)

    def test_rejects_bad_lambda(self, rng):
        for bits in (0, 12, 65536):
            with pytest.raises(ParameterError, match="seed length"):
                sample_seeds(1, bits, rng)


RESIDUE_MODULI = [
    "2", "2*3*5*7", "257", "2*257", "3*65537", "2147483647", "2*3*2147483647",
    "65521", "65537", "16777259",
]
RESIDUE_COUNTS = [0, 1, 3, 500, 5250]

# sha256 over random_residues output from random.Random sources, captured
# before the byte-level decoder was replaced.  random.Random.randbytes
# draws whole 32-bit words per call, so this also pins how the reads are
# split into randbytes calls.
GOLDEN_RANDOM_RANDOM_RESIDUES = "5db7d824400c82cd1bbfeec49efc00fc21f96af27b416b4bd8b253a3fb6b15d5"


class TestRandomResidues:
    @pytest.mark.parametrize("modulus", RESIDUE_MODULI)
    @pytest.mark.parametrize("count", RESIDUE_COUNTS)
    def test_reads_the_stream_like_randrange(self, modulus, count):
        m = parse_modulus(modulus)
        ref = DeterministicRandomSource(f"residues/{modulus}/{count}")
        got = DeterministicRandomSource(f"residues/{modulus}/{count}")
        want = [[ref.randrange(q) for q in m.factors] for _ in range(count)]
        out = random_residues(m, count, got)
        assert out.shape == (len(m.factors), count)
        assert out.T.tolist() == want
        assert got.randbytes(32) == ref.randbytes(32)  # same bytes consumed

    def test_random_random_output_is_pinned(self):
        digest = hashlib.sha256()
        for modulus in RESIDUE_MODULI:
            for count in RESIDUE_COUNTS:
                rng = random.Random(f"residues/{modulus}/{count}")
                out = random_residues(parse_modulus(modulus), count, rng)
                digest.update(out.tobytes())
                digest.update(rng.randbytes(8))  # the next read, after the split
        assert digest.hexdigest() == GOLDEN_RANDOM_RANDOM_RESIDUES

    @given(
        st.sampled_from([
            "2*3*5*7*11*13", "251", "2*3*5*7*11*13*17*19*23", "3*251",
            "2*251*257", "7*65537*2147483647", "131071", "8388593",
        ]),
        st.integers(min_value=0, max_value=700),
        st.integers(min_value=0, max_value=2 ** 32),
    )
    def test_walks_and_filters_read_like_randrange(self, modulus, count, label):
        """All-one-byte, one-factor and mixed-width moduli consume exactly
        the bytes that randrange does, and return what it returns."""
        m = parse_modulus(modulus)
        ref = DeterministicRandomSource(label)
        got = DeterministicRandomSource(label)
        want = [[ref.randrange(q) for q in m.factors] for _ in range(count)]
        out = random_residues(m, count, got)
        assert out.shape == (len(m.factors), count) and out.dtype == np.uint64
        assert out.T.tolist() == want
        assert got.randbytes(32) == ref.randbytes(32)

    def test_other_sources_stay_in_range(self, rng):
        m = parse_modulus("2*257*65537")
        out = random_residues(m, 2000, rng)
        assert (out < m._qs_np).all()
        assert all(len(set(row)) == q for row, q in zip(out.tolist(), m.factors[:2]))


def test_sized_primitives_refuse_past_the_budget_before_a_read(refusing_rng):
    # The most residues or seeds whose charge fits the budget reach the rng;
    # one more does not.  A residue is charged 24 bytes, and a 16-byte seed
    # three times its length and 192 bytes of the sampler's dictionary.
    seven, small = Modulus.prime(7), Modulus((2, 3, 5, 7))
    calls = [
        (lambda n: random_residues(small, n, refusing_rng), 2 ** 32 // (4 * 24)),
        (lambda n: FieldVector.random(seven, n, refusing_rng), 2 ** 32 // 24),
        (lambda n: sample_seeds(n, 128, refusing_rng), 2 ** 32 // (3 * 16 + 192)),
    ]
    for call, most in calls:
        with pytest.raises(AssertionError, match="random bytes"):
            call(most)
        with pytest.raises(GuardError, match="refusing"):
            call(most + 1)
    with pytest.raises(GuardError, match="refusing an expansion"):
        expand(SEED, PrgSpec(PRG_SHAKE128, 128, 2 ** 29 + 1, seven))
    with pytest.raises(GuardError, match="refusing an expansion"):
        expand(SEED, PrgSpec(PRG_SHAKE128, 128, 2 ** 32 - 1, small), first=2 ** 30)


class _RecordingSource(DeterministicRandomSource):
    """A DeterministicRandomSource that records the length of every read."""

    def __init__(self, seed_value):
        super().__init__(seed_value)
        self.reads = []

    def randbytes(self, n):
        self.reads.append(n)
        return super().randbytes(n)


def _table_walk(modulus, count, rng):
    """Reference: the multi-factor walk `random_residues` used before it
    kept accepted bytes whole.  One-byte words are looked up in a table of
    256 outcomes per factor; wider words are compared against their
    factor's bound, a partial attempt carried into the next read."""
    factors = modulus.factors
    nf = len(factors)
    widths = [(q.bit_length() + 7) // 8 for q in factors]
    shifts = [8 * w - q.bit_length() for q, w in zip(factors, widths)]
    bounds = [q << s for q, s in zip(factors, shifts)]
    total = count * nf
    drawn = []
    if max(widths) == 1:
        tables = cycle([
            [v for v in range(q) for _ in range(1 << s)] + [-1] * (256 - bound)
            for q, s, bound in zip(factors, shifts, bounds)
        ])
        table = next(tables)
        while len(drawn) < total:
            for b in rng.randbytes(total - len(drawn)):
                if table[b] >= 0:
                    drawn.append(table[b])
                    table = next(tables)
    else:
        specs = cycle(zip(widths, bounds, shifts))
        width, bound, shift = next(specs)
        carry = b""
        while len(drawn) < total:
            cycles, extra = divmod(total - len(drawn), nf)
            owed = cycles * sum(widths) + sum(widths[(len(drawn) + j) % nf] for j in range(extra))
            blob = carry + rng.randbytes(owed - len(carry))
            pos = 0
            while pos + width <= len(blob):
                word = int.from_bytes(blob[pos : pos + width], "big")
                pos += width
                if word < bound:
                    drawn.append(word >> shift)
                    width, bound, shift = next(specs)
            carry = blob[pos:]
    return np.array(drawn, dtype=np.uint64).reshape(count, nf).T


@pytest.mark.parametrize("modulus", ["2*3*5*7", "2*3*5*7*11*13", "3*251", "2*251*257"])
@pytest.mark.parametrize("count", [0, 1, 2, 362, 543])
def test_multi_factor_read_splits_are_pinned(modulus, count):
    """The same values from the same sequence of read lengths as the
    table walk, and the stream left at the same place."""
    m = parse_modulus(modulus)
    ref = _RecordingSource(f"splits/{modulus}/{count}")
    got = _RecordingSource(f"splits/{modulus}/{count}")
    want = _table_walk(m, count, ref)
    out = random_residues(m, count, got)
    assert out.dtype == np.uint64 and out.tolist() == want.tolist()
    assert got.reads == ref.reads
    assert got.randbytes(32) == ref.randbytes(32)
    if count >= 362:
        assert len(ref.reads) > 1  # rejections forced more than one read


class TestDeterministicRandomSource:
    def test_golden_first_bytes(self):
        r = DeterministicRandomSource("golden")
        assert r.randbytes(8).hex() == "e56f965bca1f4e18"

    def test_matches_hashlib_block_construction(self):
        material = b"cross-check"
        r = DeterministicRandomSource(material)
        got = r.randbytes(5000)
        blocks = b"".join(
            hashlib.shake_128(material + b"\x52" + i.to_bytes(8, "little")).digest(4096)
            for i in range(2)
        )
        assert got == blocks[:5000]

    def test_accepts_int_bytes_and_str(self):
        ints = DeterministicRandomSource(1234).randbytes(16)
        strs = DeterministicRandomSource("1234").randbytes(16)
        raw = DeterministicRandomSource(b"1234").randbytes(16)
        assert strs == raw  # str is encoded as utf-8
        assert ints != strs or ints != raw

    @given(st.integers(min_value=1, max_value=200))
    def test_getrandbits_in_range(self, k):
        r = DeterministicRandomSource(k)
        for _ in range(20):
            assert 0 <= r.getrandbits(k) < (1 << k)

    @pytest.mark.parametrize("seed, match", [(-1, "non-negative"), (1.5, "unsupported seed 1.5")])
    def test_rejects_bad_seeds(self, seed, match):
        with pytest.raises(ParameterError, match=match):
            DeterministicRandomSource(seed)

    def test_getrandbits_of_no_bits_reads_nothing(self):
        r = DeterministicRandomSource("edges")
        with pytest.raises(ValueError, match="non-negative"):
            r.getrandbits(-1)
        assert r.getrandbits(0) == 0
        assert r.randbytes(4) == DeterministicRandomSource("edges").randbytes(4)

    def test_random_unit_interval(self):
        r = DeterministicRandomSource("u")
        values = [r.random() for _ in range(500)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.3 < sum(values) / len(values) < 0.7

    def test_seed_is_a_no_op(self):
        r = DeterministicRandomSource("fixed")
        first = r.randbytes(4)
        r.seed(999)
        second = r.randbytes(4)
        fresh = DeterministicRandomSource("fixed")
        assert fresh.randbytes(8) == first + second

    def test_state_capture_disabled(self):
        r = DeterministicRandomSource("x")
        with pytest.raises(NotImplementedError):
            r.getstate()
        with pytest.raises(NotImplementedError):
            r.setstate(None)

    def test_shuffle_and_randrange_are_deterministic(self):
        a = DeterministicRandomSource("perm")
        b = DeterministicRandomSource("perm")
        xs, ys = list(range(40)), list(range(40))
        a.shuffle(xs)
        b.shuffle(ys)
        assert xs == ys
        assert [a.randrange(97) for _ in range(10)] == [b.randrange(97) for _ in range(10)]
