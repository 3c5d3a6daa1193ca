"""Seed expansion: golden vectors, rejection sampling, deterministic RNG."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpfkit import prg
from dpfkit.algebra import Modulus, parse_modulus, random_residues
from dpfkit.errors import ParameterError
from dpfkit.prg import (
    PRG_SHAKE128,
    PRG_TEST_LCG,
    DeterministicRandomSource,
    PrgSpec,
    _sample_residues,
    _stream,
    expand,
    expansion_count,
    sample_seed,
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

    def test_seed_length_enforced(self):
        spec = PrgSpec(PRG_SHAKE128, 128, 4, Modulus.prime(5))
        with pytest.raises(ParameterError):
            expand(b"short", spec)
        with pytest.raises(ParameterError):
            expand("not bytes", spec)


class TestSampleSeed:
    def test_length_and_nonzero(self, rng):
        for bits in (8, 64, 128, 256):
            seed = sample_seed(bits, rng)
            assert len(seed) == bits // 8
            assert any(seed)

    def test_deterministic_under_seeded_rng(self):
        a = sample_seed(128, DeterministicRandomSource("s"))
        b = sample_seed(128, DeterministicRandomSource("s"))
        assert a == b


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
