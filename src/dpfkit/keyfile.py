"""Binary container for evaluation keys.

Layout (all integers little-endian):

    magic        4 bytes  "DPFK"
    version      u8       1
    scheme       u8       1 honest-majority, 2 full-enumeration baseline,
                          3 trivial table, 4 comparison function
    party        u16
    parties (p)  u16
    corrupted(m) u16
    lambda       u16      seed length in bits
    domain (N)   u64
    rows (R)     u32
    cols (V)     u32
    factor count u8
    factors      u64 each, ascending primes
    prg          7 bytes  algorithm u8, lambda u16, output length u32;
                          lambda and the length repeat lambda and cols

followed by a scheme-specific body.  Field elements are encoded factor by
factor as ceil(ceil(lg q)/8) little-endian bytes each; seeds take
lambda/8 bytes.

    scheme 1: R rows, each C(p-1, m) tuples of (seed, share);
              then the correction vector, cols elements.
    scheme 2: R rows, each a u32 tuple count, q^(p-2)(q-1) in every
              row, then tuples of (column u32, seed, share), ascending
              column order, only columns with a non-zero share; then
              the correction vector, cols elements.
    scheme 3: the table, N elements.  No rows, no correction.
    scheme 4: the scheme-1 body, then R per-row output shares.

The all-zero seed value is reserved to mean "absent" and never appears
in a well-formed file.  `SCHEMES` maps each tag to its CLI name, key
class, generator and body codec.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from math import prod
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, dcf, dpf
from .algebra import Modulus
from .errors import FormatError, ParameterError

MAGIC = b"DPFK"
VERSION = 1

_HEADER = struct.Struct("<4sBBHHHHQII")
_FACTOR = struct.Struct("<Q")
_PRG = struct.Struct("<BHI")


def _factor_widths(modulus: Modulus) -> list[int]:
    return [((q - 1).bit_length() + 7) // 8 for q in modulus.factors]


def element_width(modulus: Modulus) -> int:
    """Serialized bytes per field element."""
    return sum(_factor_widths(modulus))


def _encode(data: np.ndarray, modulus: Modulus, raw: np.ndarray | None = None) -> np.ndarray:
    """`data`, uint64 of shape (factors, *shape), written into `raw`, uint8 of
    shape (*shape, element width) or new, whose last axis is contiguous: each
    factor's residues in one cast to its width's little-endian words."""
    if raw is None:
        raw = np.empty((*data.shape[1:], element_width(modulus)), dtype=np.uint8)
    start = 0
    for fi, width in enumerate(_factor_widths(modulus)):
        low = 2 if width == 3 else width  # no 3-byte dtype: the low two, then the third
        raw[..., start : start + low].view(f"<u{low}")[..., 0] = data[fi]
        if width == 3:
            raw[..., start + 2] = data[fi] >> 16
        start += width
    return raw


def _decode(raw: np.ndarray, modulus: Modulus) -> np.ndarray:
    """The residues that `_encode` wrote into `raw`, whose last axis is
    contiguous, read in place into a new uint64 array: each factor's in one
    cast from its width's little-endian words.  Then one pass checks each
    factor's largest residue."""
    out = np.empty((len(modulus.factors), *raw.shape[:-1]), dtype=np.uint64)
    start = 0
    for fi, width in enumerate(_factor_widths(modulus)):
        low = 2 if width == 3 else width  # no 3-byte dtype: the low two, then the third
        out[fi] = raw[..., start : start + low].view(f"<u{low}")[..., 0]
        if width == 3:
            out[fi] |= np.left_shift(raw[..., start + 2], 16, dtype=np.uint64)
        start += width
    top = out.reshape(len(out), -1).max(axis=1, initial=0).tolist()
    if any(t >= q for t, q in zip(top, modulus.factors)):
        raise FormatError("element residue out of range for its factor")
    return out


def encode_vector(data: np.ndarray, modulus: Modulus) -> bytes:
    """Each column of a (factors, n) residue array as the low bytes of its words."""
    return _encode(data, modulus).tobytes()


def decode_vector(data: bytes, modulus: Modulus, count: int) -> np.ndarray:
    total = element_width(modulus)
    if len(data) != count * total:
        raise FormatError(
            f"element block is {len(data)} bytes, expected {count * total}"
        )
    return _decode(np.frombuffer(data, dtype=np.uint8).reshape(count, total), modulus)


def _pack_header(scheme: int, party: int, params: dpf.SchemeParams) -> bytes:
    head = _HEADER.pack(
        MAGIC,
        VERSION,
        scheme,
        party,
        params.parties,
        params.corrupted,
        params.lambda_bits,
        params.domain_size,
        params.rows,
        params.cols,
    )
    factors = b"".join(_FACTOR.pack(q) for q in params.modulus.factors)
    prg_field = _PRG.pack(params.prg_algorithm, params.lambda_bits, params.cols)
    return head + bytes([len(params.modulus.factors)]) + factors + prg_field


def header_size(modulus: Modulus) -> int:
    return _HEADER.size + 1 + _FACTOR.size * len(modulus.factors) + _PRG.size


def _need(data, size: int) -> None:
    if len(data) < size:
        raise FormatError(f"key data truncated at byte {len(data)}")


class _Reader:
    def __init__(self, data: bytes, offset: int):
        self.data = memoryview(data)  # so take() slices without copying
        self.offset = offset

    def take(self, *shape: int) -> np.ndarray:
        """The next bytes as a uint8 view of this shape."""
        end = self.offset + prod(shape)
        _need(self.data, end)
        out = np.frombuffer(self.data[self.offset : end], dtype=np.uint8).reshape(shape)
        self.offset = end
        return out

    def done(self) -> None:
        if self.offset != len(self.data):
            raise FormatError(
                f"{len(self.data) - self.offset} trailing bytes after key body"
            )


@lru_cache(maxsize=64)
def _header_params(parties, corrupted, lam, factors, domain, rows, cols, algorithm):
    """One SchemeParams for every key with these header fields; a refused one is not cached."""
    try:
        modulus = Modulus(factors)
        return dpf.SchemeParams(parties, corrupted, lam, modulus, domain, rows, cols, algorithm)
    except ParameterError as exc:
        raise FormatError(f"invalid key header: {exc}") from exc


def parse_header(data: bytes) -> tuple[int, int, dpf.SchemeParams, int]:
    """Parse the header; returns (scheme tag, party, params, body offset)."""
    _need(data, _HEADER.size)
    magic, version, scheme, party, parties, corrupted, lam, domain, rows, cols = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if scheme not in SCHEMES:
        raise FormatError(f"unknown scheme tag {scheme}")
    if party >= parties:
        raise FormatError(f"party {party} out of range for {parties} parties")
    _need(data, _HEADER.size + 1)
    count = data[_HEADER.size]
    offset = _HEADER.size + 1 + _FACTOR.size * count + _PRG.size
    _need(data, offset)
    factors = struct.unpack_from(f"<{count}Q", data, _HEADER.size + 1)
    algorithm, prg_lam, prg_len = _PRG.unpack_from(data, offset - _PRG.size)
    if (prg_lam, prg_len) != (lam, cols):
        raise FormatError(
            f"prg seed length {prg_lam} and output length {prg_len} disagree "
            f"with the header's {lam} and {cols}"
        )
    params = _header_params(parties, corrupted, lam, factors, domain, rows, cols, algorithm)
    return scheme, party, params, offset


# Encoders return a body's regions as uint8 arrays, each filled in place;
# decoders read the key's arrays out of views of the blob, and seeds stay views.
def _take_vector(reader: _Reader, modulus: Modulus, count: int) -> np.ndarray:
    return _decode(reader.take(count, element_width(modulus)), modulus)


def _write_records(records: np.ndarray, key) -> None:
    """Fill `records`, (rows, tuples, seed + share bytes), with the key's seeds and shares."""
    seed = key.params.lambda_bits // 8
    records[..., :seed] = key.seeds
    _encode(key.shares, key.params.modulus, records[..., seed:])


def _read_records(records: np.ndarray, params: dpf.SchemeParams) -> tuple[np.ndarray, np.ndarray]:
    """Seeds and shares from `_write_records`' layout, refusing an absent seed."""
    seed = params.lambda_bits // 8
    seeds = records[..., :seed]
    if not (seeds.view(f"S{seed}") != b"").all():  # an all-zero seed reads as b""
        raise FormatError("absent-seed sentinel inside a key body")
    return seeds, _decode(records[..., seed:], params.modulus)


def _encode_dpf(key: dpf.DpfKey) -> list[np.ndarray]:
    rows, held, seed = key.seeds.shape
    records = np.empty((rows, held, seed + element_width(key.params.modulus)), np.uint8)
    _write_records(records, key)
    return [records, _encode(key.correction, key.params.modulus)]


def _decode_dpf(reader: _Reader, params: dpf.SchemeParams, party: int) -> dict:
    """Read the (seed, share) records of every row, then the correction."""
    record = params.lambda_bits // 8 + element_width(params.modulus)
    seeds, shares = _read_records(reader.take(params.rows, params.tuples_per_row, record), params)
    correction = _take_vector(reader, params.modulus, params.cols)
    return dict(party=party, params=params, seeds=seeds, shares=shares, correction=correction)


def _encode_dcf(key: dcf.DcfKey) -> list[np.ndarray]:
    return [*_encode_dpf(key), _encode(key.row_outputs, key.params.modulus)]


def _decode_dcf(reader: _Reader, params: dpf.SchemeParams, party: int) -> dict:
    fields = _decode_dpf(reader, params, party)
    return dict(fields, row_outputs=_take_vector(reader, params.modulus, params.rows))


def _encode_boyle(key: baselines.BoyleKey) -> list[np.ndarray]:
    """Per row the u32 tuple count, then its (column u32, seed, share) records."""
    rows, held, seed = key.seeds.shape
    body = np.empty((rows, 4 + held * (4 + seed + element_width(key.params.modulus))), np.uint8)
    body[:, :4].view("<u4")[...] = held
    records = body[:, 4:].reshape(rows, held, -1)
    records[..., :4].view("<u4")[..., 0] = key.columns
    _write_records(records[..., 4:], key)
    return [body, _encode(key.correction, key.params.modulus)]


def _decode_boyle(reader: _Reader, params: dpf.SchemeParams, party: int) -> dict:
    """`boyle_held_count`, which refuses what `boyle_gen` refuses, then the body in
    one read: that many records a row, whose columns `BoyleKey` checks."""
    held = baselines.boyle_held_count(params)
    record = 4 + params.lambda_bits // 8 + element_width(params.modulus)
    body = reader.take(params.rows, 4 + held * record)
    if (body[:, :4].view("<u4") != held).any():
        raise FormatError(f"a row's tuple count is not q^(p-2)(q-1) = {held}")
    records = body[:, 4:].reshape(params.rows, held, record)
    columns = records[..., :4].view("<u4")[..., 0].astype(np.uint32)
    seeds, shares = _read_records(records[..., 4:], params)
    fields = dict(party=party, params=params, columns=columns, seeds=seeds, shares=shares)
    return dict(fields, correction=_take_vector(reader, params.modulus, params.cols))


def _encode_trivial(key: baselines.TrivialKey) -> list[np.ndarray]:
    return [_encode(key.table, key.params.modulus)]


def _decode_trivial(reader: _Reader, params: dpf.SchemeParams, party: int) -> dict:
    table = _take_vector(reader, params.modulus, params.domain_size)
    # Only the auto and square grids: evaluation pays a Python step per row.
    args = params.domain_size, params.parties, params.corrupted, params.lambda_bits, params.modulus
    grids = [dpf.choose_grid(*args, mode) for mode in (dpf.GRID_AUTO, dpf.GRID_SQUARE)]
    if (params.rows, params.cols) not in grids:
        raise FormatError(f"trivial key grid {params.rows}x{params.cols} is neither of {grids}")
    return dict(party=party, params=params, table=table)


class _Scheme(NamedTuple):
    name: str
    key_class: type
    gen: Callable[..., tuple]
    encode: Callable[..., list]  # the body's regions, as uint8 arrays
    decode: Callable[..., dict]  # the key's fields, for key_class


SCHEMES = {
    1: _Scheme("ours", dpf.DpfKey, dpf.gen, _encode_dpf, _decode_dpf),
    2: _Scheme("boyle15", baselines.BoyleKey, baselines.boyle_gen, _encode_boyle, _decode_boyle),
    3: _Scheme(
        "trivial", baselines.TrivialKey, baselines.trivial_gen, _encode_trivial, _decode_trivial
    ),
    4: _Scheme("dcf", dcf.DcfKey, dcf.dcf_gen, _encode_dcf, _decode_dcf),
}


def key_to_bytes(key) -> bytes:
    """Serialize any scheme's key into the container format: its regions,
    each filled in place, joined behind the header in one copy."""
    for tag, scheme in SCHEMES.items():
        if type(key) is scheme.key_class:
            return b"".join([_pack_header(tag, key.party, key.params), *scheme.encode(key)])
    raise ParameterError(f"cannot serialize {type(key).__name__}")


def key_from_bytes(data: bytes):
    """Parse a key of any scheme; the result type follows the scheme tag."""
    tag, party, params, offset = parse_header(data)
    reader = _Reader(data, offset)
    scheme = SCHEMES[tag]
    try:
        key = scheme.key_class(**scheme.decode(reader, params, party))
    except ParameterError as exc:
        raise FormatError(f"invalid {scheme.name} key: {exc}") from exc
    reader.done()
    return key


def write_key_file(path, key) -> int:
    """Write a key; returns the byte count."""
    blob = key_to_bytes(key)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def read_key_file(path):
    with open(path, "rb") as fh:
        return key_from_bytes(fh.read())
