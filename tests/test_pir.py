"""Private lookups: query, answer, reconstruct, and the database file."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfkit.algebra import FieldVector, Modulus, parse_modulus
from dpfkit.dpf import SchemeParams
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
from dpfkit.prg import DeterministicRandomSource


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
