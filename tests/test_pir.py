"""Private lookups: query, answer, reconstruct, and the database file."""

import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfkit import pir
from dpfkit.algebra import FieldVector, Modulus, parse_modulus
from dpfkit.dpf import SchemeParams, eval_all
from dpfkit.errors import FormatError, ParameterError
from dpfkit.keyfile import encode_vector
from dpfkit.pir import (
    Database,
    pir_answer,
    pir_demo,
    pir_query,
    pir_reconstruct,
    read_database,
    write_database,
)
from dpfkit.prg import PRG_SHAKE128, PRG_TEST_LCG, DeterministicRandomSource, expansion_count


def _params(parties, corrupted, modulus, domain, **kw):
    return SchemeParams.create(
        parties=parties,
        corrupted=corrupted,
        modulus=modulus,
        domain_size=domain,
        **kw,
    )


def _database(values, modulus):
    """A database holding the given non-negative integers, reduced."""
    residues = [[v % q for v in values] for q in modulus.factors]
    return Database(modulus, FieldVector(modulus, residues))


class TestDatabase:
    def test_modulus_consistency(self, rng):
        m, other = parse_modulus("5"), parse_modulus("7")
        with pytest.raises(ParameterError):
            Database(other, FieldVector.random(m, 3, rng))

    def test_file_round_trip(self, rng, tmp_path):
        m = parse_modulus("2*3*257")
        db = Database(m, FieldVector.random(m, 40, rng))
        path = tmp_path / "t.db"
        write_database(path, db)
        back = read_database(path, m)
        assert len(back) == 40
        assert back.entries == db.entries

    def test_read_rejects_bad_length(self, tmp_path):
        m = parse_modulus("5")
        path = tmp_path / "bad.db"
        path.write_bytes(b"\x03")
        with pytest.raises(FormatError):
            read_database(path, m)
        path.write_bytes((3).to_bytes(8, "little") + b"\x00\x01")
        with pytest.raises(FormatError):
            read_database(path, m)


_FUZZ_MODULUS = parse_modulus("3*257*2147483647")
_FUZZ_DB = Database(
    _FUZZ_MODULUS, FieldVector.random(_FUZZ_MODULUS, 6, DeterministicRandomSource("fuzz-db"))
)
_FUZZ_BLOB = (6).to_bytes(8, "little") + encode_vector(_FUZZ_DB.entries)
_U64_VALUES = st.sampled_from([0, 1, 2 ** 64 - 1]) | st.integers(0, 2 ** 64 - 1)


@st.composite
def _mutated_database(draw):
    """A 6-entry database file with 1-3 bytes overwritten, truncated, or a
    new u64 entry count."""
    blob = bytearray(_FUZZ_BLOB)
    mutation = draw(st.sampled_from(["overwrite", "truncate", "count"]))
    if mutation == "overwrite":
        for _ in range(draw(st.integers(1, 3))):
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    elif mutation == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)) :]
    else:
        blob[:8] = draw(_U64_VALUES).to_bytes(8, "little")
    return bytes(blob)


@settings(max_examples=300)
@given(blob=_mutated_database())
def test_mutated_database_files_parse_or_raise_format_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.db"
    path.write_bytes(blob)
    try:
        db = read_database(path, _FUZZ_MODULUS)
    except FormatError:
        return
    write_database(path, db)
    assert path.read_bytes() == blob


class TestQueryFlow:
    def test_round_trip_every_index(self, rng):
        m = parse_modulus("2*3*5")
        db = _database(list(range(18)), m)
        params = _params(3, 1, m, 18)
        for index in range(18):
            keys = pir_query(index, params, rng)
            answers = [pir_answer(k, db) for k in keys]
            assert pir_reconstruct(answers, params).lift() == index

    def test_single_answer_is_not_the_entry(self, rng):
        m = parse_modulus("257")
        db = _database([7] * 16, m)
        params = _params(3, 1, m, 16)
        keys = pir_query(3, params, rng)
        answers = [pir_answer(k, db).lift() for k in keys]
        assert answers.count(7) < 3

    def test_database_checks(self, rng):
        m = parse_modulus("5")
        params = _params(3, 1, m, 10)
        keys = pir_query(0, params, rng)
        with pytest.raises(ParameterError, match="entries"):
            pir_answer(keys[0], _database([1] * 9, m))
        with pytest.raises(ParameterError, match="modulus"):
            pir_answer(keys[0], _database([1] * 10, parse_modulus("7")))

    def test_reconstruct_requires_all_answers(self, rng):
        m = parse_modulus("5")
        db = _database(list(range(5)), m)
        params = _params(3, 1, m, 5)
        keys = pir_query(2, params, rng)
        answers = [pir_answer(k, db) for k in keys]
        with pytest.raises(ParameterError):
            pir_reconstruct(answers[:2], params)


def _full_domain_answer(key, db):
    """The reference answer: the inner product of the whole selector vector."""
    return (eval_all(key) * db.entries).sum()


@st.composite
def _streaming_case(draw):
    """Keys and a database with p <= 7, m < p/2 and N <= 3000; the grid
    often ends in a partial row and sometimes has an unused one."""
    parties = draw(st.integers(3, 7))
    corrupted = draw(st.integers(1, (parties - 1) // 2))
    modulus = parse_modulus(draw(st.sampled_from(["2147483647", "2*3*5*7", "65521", "3*65537"])))
    domain = draw(st.integers(1, 3000))
    cols = draw(st.integers(max(1, domain // 40), domain))
    rows = -(-domain // cols) + draw(st.integers(0, 1))
    rng = DeterministicRandomSource(draw(st.integers(0, 2 ** 32)))
    params = _params(
        parties, corrupted, modulus, domain, grid=(rows, cols),
        prg_algorithm=draw(st.sampled_from([PRG_SHAKE128, PRG_TEST_LCG])),
    )
    db = Database(modulus, FieldVector.random(modulus, domain, rng))
    index = draw(st.integers(0, domain - 1))
    return pir_query(index, params, rng), db, index


class TestStreamingAnswer:
    @settings(max_examples=40)
    @given(_streaming_case())
    def test_matches_the_full_domain_inner_product(self, case):
        keys, db, index = case
        answers = [pir_answer(key, db) for key in keys]
        assert answers == [_full_domain_answer(key, db) for key in keys]
        assert pir_reconstruct(answers, keys[0].params) == db.entries[index]

    def test_largest_residues_do_not_wrap(self, monkeypatch):
        # Every share and entry is q-1, so each product is the largest there
        # is, and the answer is N * (q-1)**2 = N mod q.
        modulus = Modulus.prime(2 ** 31 - 1)
        q = modulus.factors[0]
        n, cols = 20_000, 5243
        params = _params(3, 1, modulus, n, grid=(4, cols))
        key = pir_query(0, params, DeterministicRandomSource("wrap"))[0]
        top = np.full((1, n), q - 1, dtype=np.uint64)

        def largest_rows(key):
            for start in range(0, n, cols):
                yield start, top[:, start : start + cols].copy()

        monkeypatch.setattr(pir, "eval_rows", largest_rows)
        db = Database(modulus, FieldVector(modulus, top))
        assert pir_answer(key, db).lift() == n % q

    @pytest.mark.parametrize("modulus_text", ["2147483647", "2*3*5*7"])
    def test_memory_stays_below_a_quarter_of_the_selector(self, modulus_text):
        modulus = parse_modulus(modulus_text)
        n = 2 ** 16
        rng = DeterministicRandomSource("stream-memory")
        db = Database(modulus, FieldVector.random(modulus, n, rng))
        key = pir_query(n // 3, _params(3, 1, modulus, n), rng)[0]
        pir_answer(key, db)  # fill the word-format cache outside the trace
        tracemalloc.start()
        try:
            pir_answer(key, db)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(modulus.factors) * n * 8 / 4

    def test_expands_each_held_seed_once(self, rng):
        modulus = parse_modulus("2*3*5*7")
        params = _params(5, 2, modulus, 100, grid=(13, 9))
        db = Database(modulus, FieldVector.random(modulus, 100, rng))
        key = pir_query(42, params, rng)[0]
        before = expansion_count()
        pir_answer(key, db)
        assert expansion_count() - before == params.used_rows() * comb(4, 2) == 72


class TestDemo:
    def test_recovers_value_and_accounts_bandwidth(self):
        m = Modulus.prime(2 ** 31 - 1)
        rng = DeterministicRandomSource("pir")
        db = Database(m, FieldVector.random(m, 500, rng))
        value, transcript = pir_demo(db, 123, parties=5, corrupted=2, lambda_bits=128, rng=rng)
        assert value.lift() == db.entries[123].lift()
        assert transcript.download_bits == 5 * 32
        assert transcript.trivial_bits == 500 * 31
        assert 0 < transcript.upload_bits

    def test_upload_beats_trivial_at_scale(self):
        m = Modulus.prime(2 ** 31 - 1)
        rng = DeterministicRandomSource("pir2")
        db = Database(m, FieldVector.random(m, 4000, rng))
        _, transcript = pir_demo(db, 17, parties=3, corrupted=1, lambda_bits=128, rng=rng)
        assert transcript.upload_bits < transcript.trivial_bits
