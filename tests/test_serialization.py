"""Binary key container: round trips, golden bytes, malformed input."""

import contextlib
import hashlib
import tracemalloc
from functools import cache
from math import prod

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from dpfkit import cli
from dpfkit.algebra import FieldVector, parse_modulus
from dpfkit.baselines import boyle_gen, check_guard, trivial_gen
from dpfkit.dcf import dcf_eval, dcf_gen
from dpfkit.dpf import DpfKey, PointDescription, SchemeParams, eval_all, eval_point, gen
from dpfkit.errors import FormatError, GuardError, ParameterError
from dpfkit.keyfile import (
    SCHEMES,
    _header_params,
    _pack_header,
    decode_vector,
    element_width,
    encode_vector,
    header_size,
    key_from_bytes,
    key_to_bytes,
    parse_header,
    read_key_file,
    write_key_file,
)
from dpfkit.prg import PRG_TEST_LCG, DeterministicRandomSource, PrgSpec

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


@cache
def _golden_blobs():
    return tuple(
        make()
        for make in (_golden_key_blob, _dcf_golden_blob, _trivial_golden_blob, _boyle_blob)
    )


# The golden DPF header: the fixed fields, one u64 factor, then the PRG
# triple (algorithm u8, seed bits u16, output length u32).
_PRG_LAMBDA = 30 + 1 + 8 + 1
_PRG_LENGTH = _PRG_LAMBDA + 2


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
                assert eval_point(back, x).lift() == eval_point(key, x).lift()

    def test_truth_table_scheme(self, rng):
        params = _params(4, 1, "257", 10)
        keys = trivial_gen(PointDescription(6, params.modulus.element(99)), params, rng)
        for key in keys:
            back = _round_trip(key)
            assert np.array_equal(back.table, key.table)

    def test_lcg_prg_with_long_seeds_and_a_wide_row(self):
        params = _params(3, 1, "30", 1000, grid=(1, 1000), lambda_bits=256,
                         prg_algorithm=PRG_TEST_LCG)
        rng = DeterministicRandomSource("prg-triple")
        keys = gen(PointDescription(999, params.modulus.element(7)), params, rng)
        blob = key_to_bytes(keys[1])
        offset = header_size(params.modulus)
        assert blob[offset - 7 : offset] == bytes([255, 0, 1, 0xE8, 0x03, 0, 0])
        scheme, party, back, body = parse_header(blob)
        assert (scheme, party, back, body) == (1, 1, params, offset)
        assert back.prg == PrgSpec(PRG_TEST_LCG, 256, 1000, params.modulus)
        for key in keys:
            restored = _round_trip(key)
            for x in (0, 998, 999):
                assert eval_point(restored, x).lift() == eval_point(key, x).lift()

    def test_file_round_trip(self, rng, tmp_path):
        params = _params(3, 1, "5", 6)
        keys = gen(PointDescription(1, params.modulus.one()), params, rng)
        path = tmp_path / "k.dpfk"
        size = write_key_file(path, keys[2])
        assert path.stat().st_size == size
        back = read_key_file(path)
        assert key_to_bytes(back) == key_to_bytes(keys[2])

    def test_file_is_decoded_without_a_copy_of_its_body(self, tmp_path):
        # A trivial key's body is its whole table: the decoder holds the
        # file's bytes and the uint64 table, and no second copy of the body.
        domain = 1 << 16
        params = _params(3, 1, "2147483647", domain)
        point = PointDescription(5, params.modulus.element(3))
        key = trivial_gen(point, params, DeterministicRandomSource("no-copy"))[0]
        path = tmp_path / "k.dpfk"
        size = write_key_file(path, key)
        tracemalloc.start()
        try:
            back = read_key_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.table, key.table)
        assert peak < 1.25 * (size + 8 * domain)

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


@settings(max_examples=100)
@given(
    tag=st.sampled_from(sorted(SCHEMES)),
    parties=st.integers(min_value=3, max_value=5),
    lambda_bits=st.sampled_from([8, 128]),
    domain=st.integers(min_value=1, max_value=300),
    data=st.data(),
)
def test_every_body_is_its_regions(tag, parties, lambda_bits, domain, data):
    # A blob is its header and its scheme's regions, nothing more: one byte
    # less is truncated, one byte more is trailing.  boyle15 takes primes only.
    scheme = SCHEMES[tag]
    moduli = ["2", "3", "5", "7"] if scheme.name == "boyle15" else ["2", "13", "2*3", "3*5*17"]
    modulus_text = data.draw(st.sampled_from(moduli))
    corrupted = data.draw(st.integers(min_value=1, max_value=(parties - 1) // 2))
    params = _params(parties, corrupted, modulus_text, domain, lambda_bits=lambda_bits)
    point = PointDescription(data.draw(st.integers(0, domain - 1)), params.modulus.one())
    rng = DeterministicRandomSource(f"regions-{tag}-{params}")
    try:
        key = scheme.gen(point, params, rng)[-1]
    except (ParameterError, GuardError):  # one-byte seeds too few, or q^(p-1) past the guard
        reject()
    blob = key_to_bytes(key)
    regions = scheme.regions(params)
    assert len(blob) == header_size(params.modulus) + sum(map(prod, regions))
    with pytest.raises(FormatError, match=f"^key data truncated at byte {len(blob) - 1}$"):
        key_from_bytes(blob[:-1])
    with pytest.raises(FormatError, match="^1 trailing bytes after key body$"):
        key_from_bytes(blob + b"\x00")


@pytest.mark.parametrize("tag", sorted(SCHEMES))
def test_scheme_table_generators_match_class_and_tag(tag):
    scheme = SCHEMES[tag]
    params = _params(3, 1, "5", 4)
    rng = DeterministicRandomSource(f"table-{scheme.name}")
    keys = scheme.gen(PointDescription(2, params.modulus.element(3)), params, rng)
    assert len(keys) == 3
    for key in keys:
        assert type(key) is scheme.key_class
        assert parse_header(key_to_bytes(key))[0] == tag


def test_only_the_scheme_table_key_classes_serialize():
    with pytest.raises(ParameterError, match="cannot serialize object"):
        key_to_bytes(object())


class TestVectorCodec:
    def test_round_trip(self, rng):
        m = parse_modulus("2*3*257")
        vec = FieldVector.random(m, 9, rng)
        raw = encode_vector(vec.data, m)
        assert len(raw) == 9 * (1 + 1 + 2)
        assert np.array_equal(decode_vector(raw, m, 9), vec.data)

    def test_rejects_out_of_range_residue(self):
        m = parse_modulus("5")
        with pytest.raises(FormatError):
            decode_vector(b"\x05", m, 1)

    def test_rejects_wrong_length(self):
        m = parse_modulus("5")
        with pytest.raises(FormatError):
            decode_vector(b"\x01\x02", m, 3)


def _reference_encode(vec):
    """The byte-at-a-time encoder the strided codec replaced."""
    widths = [((q - 1).bit_length() + 7) // 8 for q in vec.modulus.factors]
    columns = []
    for fi in range(len(vec.modulus.factors)):
        row = vec.data[fi]
        for k in range(widths[fi]):
            columns.append(((row >> np.uint64(8 * k)) & np.uint64(0xFF)).astype(np.uint8))
    return np.stack(columns, axis=1).tobytes()


def _reference_decode(data, modulus, count):
    """The shift-and-or decoder the strided codec replaced, without checks."""
    widths = [((q - 1).bit_length() + 7) // 8 for q in modulus.factors]
    mat = np.frombuffer(data, dtype=np.uint8).reshape(count, sum(widths)).astype(np.uint64)
    arr = np.zeros((len(modulus.factors), count), dtype=np.uint64)
    offset = 0
    for fi, w in enumerate(widths):
        for k in range(w):
            arr[fi] |= mat[:, offset + k] << np.uint64(8 * k)
        offset += w
    return arr


# Word widths 1 to 4 bytes alone and mixed within one element.
CODEC_MODULI = [
    "2*3*5*7",
    "257",
    "65537",
    "16777259",
    "2147483647",
    "3*65537*2147483647",
    "65521*65537*2147483647",
]


def _random_residues(modulus, count, seed):
    draws = np.random.default_rng(seed)
    return np.stack([draws.integers(0, q, count, dtype=np.uint64) for q in modulus.factors])


@pytest.mark.parametrize("modulus_text", CODEC_MODULI)
@pytest.mark.parametrize("count", [0, 1, 7, 5525])
@pytest.mark.parametrize("residues", ["random", "largest"])
def test_codec_matches_the_byte_loop_reference(modulus_text, count, residues):
    modulus = parse_modulus(modulus_text)
    if residues == "largest":
        data = np.repeat(modulus._qs_np - 1, count, axis=1)
    else:
        data = _random_residues(modulus, count, count)
    vec = FieldVector._raw(modulus, data)
    raw = encode_vector(data, modulus)
    assert raw == _reference_encode(vec)
    decoded = decode_vector(raw, modulus, count)
    assert decoded.dtype == np.uint64
    assert decoded.tolist() == _reference_decode(raw, modulus, count).tolist()
    assert np.array_equal(decoded, data)


@pytest.mark.parametrize("modulus_text", CODEC_MODULI)
def test_codec_decodes_a_view_at_an_offset(modulus_text):
    # A block read from a view of a larger buffer, behind a length prefix.
    modulus = parse_modulus(modulus_text)
    data = _random_residues(modulus, 5525, 1)
    raw = _reference_encode(FieldVector._raw(modulus, data))
    view = memoryview(b"\x07" * 13 + raw + b"\x09")[13:-1]
    decoded = decode_vector(view, modulus, 5525)
    assert decoded.tolist() == _reference_decode(raw, modulus, 5525).tolist()


@pytest.mark.parametrize("modulus_text", CODEC_MODULI)
def test_key_records_match_the_byte_loop_reference(modulus_text):
    # Shares sit strided between 16-byte seeds; the correction follows them.
    modulus = parse_modulus(modulus_text)
    params = SchemeParams(3, 1, 128, modulus, 5000, 50, 100)
    rows, held, factors = params.rows, params.tuples_per_row, len(modulus.factors)
    seeds = np.random.default_rng(2).integers(1, 256, (rows, held, 16), dtype=np.uint8)
    shares = _random_residues(modulus, rows * held, 3).reshape(factors, rows, held)
    correction = _random_residues(modulus, params.cols, 4)
    blob = key_to_bytes(DpfKey(0, params, seeds, shares, correction))
    width = element_width(modulus)
    body = blob[header_size(modulus) :]
    records = np.frombuffer(body, np.uint8, rows * held * (16 + width)).reshape(rows, held, -1)
    share_bytes, correction_bytes = records[..., 16:].tobytes(), body[records.size :]
    assert records[..., :16].tobytes() == seeds.tobytes()
    assert share_bytes == _reference_encode(FieldVector._raw(modulus, shares.reshape(factors, -1)))
    assert correction_bytes == _reference_encode(FieldVector._raw(modulus, correction))
    back = key_from_bytes(blob)
    flat = back.shares.reshape(factors, -1).tolist()
    assert flat == _reference_decode(share_bytes, modulus, rows * held).tolist()
    assert back.correction.tolist() == _reference_decode(correction_bytes, modulus, 100).tolist()
    assert np.array_equal(back.seeds, seeds)


class TestHeaderCache:
    def test_one_header_decodes_to_one_params_object(self):
        params = _params(3, 1, "2*3*5*7", 1000)
        blobs = []
        for alpha in (3, 9):
            rng = DeterministicRandomSource(f"cache-{alpha}")
            keys = gen(PointDescription(alpha, params.modulus.one()), params, rng)
            blobs.append(key_to_bytes(keys[1]))
        assert blobs[0][: header_size(params.modulus)] == blobs[1][: header_size(params.modulus)]
        first, second = (key_from_bytes(blob) for blob in blobs)
        assert first.params is second.params == params
        assert parse_header(blobs[0])[2] is first.params

    def test_a_refused_header_is_refused_every_time_and_not_cached(self):
        blob = bytearray(_golden_key_blob())
        blob[31:39] = (4).to_bytes(8, "little")  # the modulus factor, composite
        before = _header_params.cache_info()
        for _ in range(3):
            with pytest.raises(FormatError, match="invalid key header: modulus factor 4"):
                key_from_bytes(bytes(blob))
        after = _header_params.cache_info()
        assert (after.misses, after.hits) == (before.misses + 3, before.hits)
        assert after.currsize == before.currsize

    def test_many_headers_leave_the_cache_at_its_bound(self):
        bound = _header_params.cache_info().maxsize
        for domain in range(10 ** 6, 10 ** 6 + bound + 10):
            params = SchemeParams(3, 1, 128, parse_modulus("5"), domain, 2000, 1000)
            assert parse_header(_pack_header(1, 0, params) + bytes(8))[2] == params
        assert _header_params.cache_info().currsize == bound


@pytest.mark.parametrize("modulus_text", CODEC_MODULI)
def test_codec_rejects_the_last_residue_out_of_range(modulus_text):
    modulus = parse_modulus(modulus_text)
    q = modulus.factors[-1]
    width = ((q - 1).bit_length() + 7) // 8
    raw = encode_vector(np.zeros((len(modulus.factors), 7), dtype=np.uint64), modulus)
    bad = raw[:-width] + q.to_bytes(width, "little")
    with pytest.raises(FormatError, match="out of range"):
        decode_vector(bad, modulus, 7)


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

    @pytest.mark.parametrize("count,records,message", [
        (5, "drop the last", "truncated"),
        (7, "append column 7", "tuple count"),
        (5, "keep", "tuple count"),
        (7, "keep", "tuple count"),
    ])
    def test_boyle_row_of_another_tuple_count_exits_3(
        self, capsys, tmp_path, count, records, message
    ):
        # The golden row holds T = q^(p-2)(q-1) = 6 records of 21 bytes, for
        # columns 0 and 2-6.  A row of T-1 or T+1 otherwise valid records is
        # refused, and so is a count of T-1 or T+1 in front of the T records.
        blob = _boyle_blob()
        end = _BOYLE_BODY + 4 + 6 * 21
        body = blob[_BOYLE_BODY + 4 : end]
        if records == "drop the last":
            body = body[:-21]
        elif records == "append column 7":
            body += (7).to_bytes(4, "little") + bytes([1]) * 16 + bytes([1])
        blob = blob[:_BOYLE_BODY] + count.to_bytes(4, "little") + body + blob[end:]
        with pytest.raises(FormatError, match=message):
            key_from_bytes(blob)
        path = tmp_path / "boyle.dpfk"
        path.write_bytes(blob)
        assert cli.main(["eval", "--key", str(path), "--x", "0"]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("offset,value", [
        (_PRG_LAMBDA, 256), (_PRG_LAMBDA, 120), (_PRG_LENGTH, 3), (_PRG_LENGTH, 5),
    ])
    def test_prg_triple_must_repeat_lambda_and_cols(self, offset, value):
        # The golden header declares 128-bit seeds and a 1x4 grid.
        blob = self._blob()
        width = 2 if offset == _PRG_LAMBDA else 4
        blob[offset : offset + width] = value.to_bytes(width, "little")
        with pytest.raises(FormatError, match="prg"):
            key_from_bytes(bytes(blob))

    def test_empty_input(self):
        with pytest.raises(FormatError):
            key_from_bytes(b"")


_U32_VALUES = st.sampled_from([0, 1, 2 ** 32 - 1]) | st.integers(0, 2 ** 32 - 1)


@st.composite
def _mutated_golden_blob(draw):
    """One golden blob with 1-3 bytes overwritten, truncated, or a u32 written
    into its first 60 bytes, where the header and the first records lie."""
    blob = bytearray(_golden_blobs()[draw(st.integers(0, 3))])
    mutation = draw(st.sampled_from(["overwrite", "truncate", "u32"]))
    if mutation == "overwrite":
        for _ in range(draw(st.integers(1, 3))):
            blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    elif mutation == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)) :]
    else:
        at = draw(st.integers(0, 56))
        blob[at : at + 4] = draw(_U32_VALUES).to_bytes(4, "little")
    return bytes(blob)


@settings(max_examples=400)
@given(blob=_mutated_golden_blob())
def test_mutated_golden_blobs_parse_or_raise_format_error(blob):
    try:
        key = key_from_bytes(blob)
    except FormatError:
        return
    except GuardError:
        # A boyle15 header past COLUMN_GUARD is refused as boyle_gen refuses it.
        scheme, _, params, _ = parse_header(blob)
        assert scheme == 2
        with pytest.raises(GuardError):
            check_guard(params.modulus.value, params.parties)
        return
    assert key_to_bytes(key) == blob
    # What parses evaluates, or is refused by a work bound.
    n = key.params.domain_size
    with contextlib.suppress(GuardError):
        eval_point(key, 0)
        eval_point(key, n - 1)
        if n <= 1 << 16:
            eval_all(key)
