"""Binary key container: round trips, golden bytes, malformed input."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpfkit.algebra import FieldVector, Modulus, parse_modulus
from dpfkit.baselines import boyle_eval, boyle_gen, trivial_eval, trivial_gen
from dpfkit.dcf import dcf_eval, dcf_gen
from dpfkit.dpf import PointDescription, SchemeParams, eval_point, gen
from dpfkit.errors import FormatError
from dpfkit.keyfile import (
    decode_vector,
    encode_vector,
    header_size,
    key_from_bytes,
    key_to_bytes,
    parse_header,
    read_key_file,
    write_key_file,
)
from dpfkit.prg import DeterministicRandomSource

GOLDEN_HEADER_HEX = (
    "4450464b010100000300010080000400000000000000010000000400000001"
    "050000000000000000800004000000"
)


def _params(parties, corrupted, modulus_text, domain, **kw):
    return SchemeParams.create(
        parties=parties,
        corrupted=corrupted,
        modulus=parse_modulus(modulus_text),
        domain_size=domain,
        **kw,
    )


def _golden_key_blob():
    params = _params(3, 1, "5", 4)
    rng = DeterministicRandomSource("golden")
    keys = gen(PointDescription(2, params.modulus.element(3)), params, rng)
    return key_to_bytes(keys[0])


def _dcf_golden_blob():
    params = _params(3, 1, "2*3*5", 12, grid=(3, 4))
    rng = DeterministicRandomSource("dcf-golden")
    keys = dcf_gen(PointDescription(7, params.modulus.element(19)), params, rng)
    return key_to_bytes(keys[0])


def _trivial_golden_blob():
    params = _params(3, 1, "2*3*5", 12)
    rng = DeterministicRandomSource("trivial-golden")
    keys = trivial_gen(PointDescription(7, params.modulus.element(19)), params, rng)
    return key_to_bytes(keys[0])


def _boyle_blob():
    params = _params(3, 1, "3", 4, grid=(1, 4))
    rng = DeterministicRandomSource("boyle-records")
    keys = boyle_gen(PointDescription(1, params.modulus.one()), params, rng)
    return key_to_bytes(keys[0])


# Offsets of (seed, share) records: the first record of the DPF golden, the
# last record of its only row, the last record of the DCF golden's last
# row (3 rows of 2 records, 16-byte seed plus 3 one-byte residues), and the
# seed of the last record in the Boyle key's only row (a u32 count of 6,
# then records of a u32 column, a 16-byte seed and a one-byte residue).
_GOLDEN_BODY = header_size(parse_modulus("5"))
_DCF_BODY = header_size(parse_modulus("2*3*5"))
_BOYLE_BODY = header_size(parse_modulus("3"))
_BOYLE_LAST_COLUMN = _BOYLE_BODY + 4 + 5 * 21
_RECORDS = (
    (_golden_key_blob, _GOLDEN_BODY),
    (_golden_key_blob, _GOLDEN_BODY + 17),
    (_dcf_golden_blob, _DCF_BODY + 5 * 19),
    (_boyle_blob, _BOYLE_LAST_COLUMN + 4),
)


class TestGolden:
    def test_header_bytes_are_stable(self):
        blob = _golden_key_blob()
        assert blob[: len(bytes.fromhex(GOLDEN_HEADER_HEX))].hex() == GOLDEN_HEADER_HEX

    def test_key_digest_is_stable(self):
        assert (
            hashlib.sha256(_golden_key_blob()).hexdigest()
            == "4aec37bb3967f25e13f4774fa8e9e5174f7d6407ecd30a25ff27a2896b0e343f"
        )

    def test_comparison_key_digest_is_stable(self):
        assert (
            hashlib.sha256(_dcf_golden_blob()).hexdigest()
            == "c5d56420b11f4235395185c1697f0f6ed7747b6e3b7600eabf6d7f8103b538ba"
        )

    def test_full_enumeration_key_digest_is_stable(self):
        blob = _boyle_blob()
        assert len(blob) == 180
        assert (
            hashlib.sha256(blob).hexdigest()
            == "427633ee34ac2f0ea7d7576bb3c5f51701f64d1d13089e227f4ee1e36a122e06"
        )

    def test_truth_table_key_digest_is_stable(self):
        blob = _trivial_golden_blob()
        assert len(blob) == 98
        assert (
            hashlib.sha256(blob).hexdigest()
            == "105d0d131b42028a643e5677c45c6475f476fed6b15a558c414753fb0ca6b8b8"
        )

    def test_header_size_formula(self):
        assert header_size(parse_modulus("5")) == 46
        assert header_size(parse_modulus("2*3*5*7")) == 46 + 24


def _round_trip(key):
    blob = key_to_bytes(key)
    back = key_from_bytes(blob)
    assert type(back) is type(key)
    assert key_to_bytes(back) == blob
    return back


class TestRoundTrips:
    def test_point_scheme(self, rng):
        params = _params(3, 1, "2*3*5", 20)
        keys = gen(PointDescription(13, params.modulus.element(17)), params, rng)
        for key in keys:
            back = _round_trip(key)
            for x in (0, 7, 13, 19):
                assert eval_point(back, x).lift() == eval_point(key, x).lift()

    def test_comparison_scheme(self, rng):
        params = _params(3, 1, "7", 12)
        keys = dcf_gen(PointDescription(5, params.modulus.element(3)), params, rng)
        for key in keys:
            back = _round_trip(key)
            for x in range(12):
                assert dcf_eval(back, x).lift() == dcf_eval(key, x).lift()

    def test_full_enumeration_scheme(self, rng):
        params = _params(3, 1, "3", 9)
        keys = boyle_gen(PointDescription(4, params.modulus.element(2)), params, rng)
        for key in keys:
            back = _round_trip(key)
            for x in range(9):
                assert boyle_eval(back, x).lift() == boyle_eval(key, x).lift()

    def test_truth_table_scheme(self, rng):
        params = _params(4, 1, "257", 10)
        keys = trivial_gen(PointDescription(6, params.modulus.element(99)), params, rng)
        for key in keys:
            back = _round_trip(key)
            assert back.table == key.table

    def test_file_round_trip(self, rng, tmp_path):
        params = _params(3, 1, "5", 6)
        keys = gen(PointDescription(1, params.modulus.one()), params, rng)
        path = tmp_path / "k.dpfk"
        size = write_key_file(path, keys[2])
        assert path.stat().st_size == size
        back = read_key_file(path)
        assert key_to_bytes(back) == key_to_bytes(keys[2])

    @given(
        parties=st.integers(min_value=3, max_value=5),
        alpha=st.integers(min_value=0, max_value=11),
        beta=st.integers(min_value=0, max_value=10 ** 6),
        modulus_text=st.sampled_from(["2", "13", "2*3", "3*5*17"]),
    )
    def test_point_scheme_property(self, parties, alpha, beta, modulus_text):
        params = _params(parties, 1, modulus_text, 12)
        rng = DeterministicRandomSource(f"{parties}/{alpha}/{beta}/{modulus_text}")
        point = PointDescription(alpha, params.modulus.element(beta))
        for key in gen(point, params, rng):
            _round_trip(key)


class TestVectorCodec:
    def test_round_trip(self, rng):
        m = parse_modulus("2*3*257")
        vec = FieldVector.random(m, 9, rng)
        raw = encode_vector(vec)
        assert len(raw) == 9 * (1 + 1 + 2)
        assert decode_vector(raw, m, 9) == vec

    def test_rejects_out_of_range_residue(self):
        m = parse_modulus("5")
        with pytest.raises(FormatError):
            decode_vector(b"\x05", m, 1)

    def test_rejects_wrong_length(self):
        m = parse_modulus("5")
        with pytest.raises(FormatError):
            decode_vector(b"\x01\x02", m, 3)


class TestMalformedInput:
    def _blob(self):
        return bytearray(_golden_key_blob())

    def test_bad_magic(self):
        blob = self._blob()
        blob[0] = ord("X")
        with pytest.raises(FormatError, match="magic"):
            key_from_bytes(bytes(blob))

    def test_bad_version(self):
        blob = self._blob()
        blob[4] = 9
        with pytest.raises(FormatError, match="version"):
            key_from_bytes(bytes(blob))

    def test_unknown_scheme(self):
        blob = self._blob()
        blob[5] = 77
        with pytest.raises(FormatError):
            key_from_bytes(bytes(blob))

    def test_truncated_everywhere(self):
        blob = self._blob()
        for cut in (0, 3, 10, 30, len(blob) - 1):
            with pytest.raises(FormatError):
                key_from_bytes(bytes(blob[:cut]))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(FormatError, match="trailing"):
            key_from_bytes(_golden_key_blob() + b"\x00")

    def test_all_zero_seed_rejected(self):
        for make_blob, offset in _RECORDS:
            blob = bytearray(make_blob())
            blob[offset : offset + 16] = bytes(16)
            with pytest.raises(FormatError, match="sentinel"):
                key_from_bytes(bytes(blob))

    def test_out_of_range_share_rejected(self):
        targets = [(make_blob, offset + 16) for make_blob, offset in _RECORDS]
        # the last residue of the DCF golden's row-output block ends the blob
        targets.append((_dcf_golden_blob, len(_dcf_golden_blob()) - 1))
        for make_blob, offset in targets:
            blob = bytearray(make_blob())
            blob[offset] = 5  # share residue must stay below the factor
            with pytest.raises(FormatError, match="out of range"):
                key_from_bytes(bytes(blob))

    def test_boyle_column_order_enforced(self, rng):
        params = _params(3, 1, "3", 4, grid=(1, 4))
        keys = boyle_gen(PointDescription(0, params.modulus.one()), params, rng)
        blob = bytearray(key_to_bytes(keys[0]))
        offset = header_size(parse_modulus("3"))
        first = blob[offset + 4 : offset + 4 + 21]
        second = blob[offset + 4 + 21 : offset + 4 + 42]
        blob[offset + 4 : offset + 4 + 21] = second
        blob[offset + 4 + 21 : offset + 4 + 42] = first
        with pytest.raises(FormatError, match="column"):
            key_from_bytes(bytes(blob))

    def test_boyle_column_range_and_count_enforced(self):
        blob = bytearray(_boyle_blob())
        blob[_BOYLE_LAST_COLUMN : _BOYLE_LAST_COLUMN + 4] = (9).to_bytes(4, "little")
        with pytest.raises(FormatError, match="column indexes"):
            key_from_bytes(bytes(blob))
        blob = bytearray(_boyle_blob())
        blob[_BOYLE_BODY : _BOYLE_BODY + 4] = (10).to_bytes(4, "little")
        with pytest.raises(FormatError, match="tuple count"):
            key_from_bytes(bytes(blob))

    def test_empty_input(self):
        with pytest.raises(FormatError):
            key_from_bytes(b"")
