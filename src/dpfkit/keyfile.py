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


def _byte_columns(modulus: Modulus) -> list[tuple[int, int]]:
    """(factor, byte) for each byte of an encoded element, in order."""
    return [(fi, k) for fi, w in enumerate(_factor_widths(modulus)) for k in range(w)]


def encode_vector(data: np.ndarray, modulus: Modulus) -> bytes:
    """Each column of a (factors, n) residue array as the low bytes of its words."""
    columns = _byte_columns(modulus)
    words = np.ascontiguousarray(data, dtype="<u8")
    octets = words.view(np.uint8).reshape(*words.shape, 8)
    out = np.empty((words.shape[1], len(columns)), dtype=np.uint8)
    for i, (fi, k) in enumerate(columns):
        out[:, i] = octets[fi, :, k]
    return out.tobytes()


def decode_vector(data: bytes, modulus: Modulus, count: int) -> np.ndarray:
    columns = _byte_columns(modulus)
    total = len(columns)
    if len(data) != count * total:
        raise FormatError(
            f"element block is {len(data)} bytes, expected {count * total}"
        )
    mat = np.frombuffer(data, dtype=np.uint8).reshape(count, total)
    arr = np.zeros((len(modulus.factors), count), dtype="<u8")
    octets = arr.view(np.uint8).reshape(len(arr), count, 8)
    for i, (fi, k) in enumerate(columns):
        octets[fi, :, k] = mat[:, i]
    if arr.size and not (arr < modulus._qs_np).all():
        raise FormatError("element residue out of range for its factor")
    return arr


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


class _Reader:
    def __init__(self, data: bytes, offset: int):
        self.data = memoryview(data)  # so take() slices without copying
        self.offset = offset

    def take(self, n: int) -> memoryview:
        if self.offset + n > len(self.data):
            raise FormatError(f"key data truncated at byte {len(self.data)}")
        out = self.data[self.offset : self.offset + n]
        self.offset += n
        return out

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self.take(layout.size))

    def done(self) -> None:
        if self.offset != len(self.data):
            raise FormatError(
                f"{len(self.data) - self.offset} trailing bytes after key body"
            )


def parse_header(data: bytes) -> tuple[int, int, dpf.SchemeParams, int]:
    """Parse the header; returns (scheme tag, party, params, body offset)."""
    reader = _Reader(data, 0)
    magic, version, scheme, party, parties, corrupted, lam, domain, rows, cols = (
        reader.unpack(_HEADER)
    )
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if scheme not in SCHEMES:
        raise FormatError(f"unknown scheme tag {scheme}")
    if party >= parties:
        raise FormatError(f"party {party} out of range for {parties} parties")
    (n_factors,) = reader.take(1)
    factors = tuple(reader.unpack(_FACTOR)[0] for _ in range(n_factors))
    algorithm, prg_lam, prg_len = reader.unpack(_PRG)
    if (prg_lam, prg_len) != (lam, cols):
        raise FormatError(
            f"prg seed length {prg_lam} and output length {prg_len} disagree "
            f"with the header's {lam} and {cols}"
        )
    try:
        params = dpf.SchemeParams(
            parties, corrupted, lam, Modulus(factors), domain, rows, cols, algorithm
        )
    except ParameterError as exc:
        raise FormatError(f"invalid key header: {exc}") from exc
    return scheme, party, params, reader.offset


def _take_vector(reader: _Reader, modulus: Modulus, count: int) -> np.ndarray:
    return decode_vector(reader.take(count * element_width(modulus)), modulus, count)


def _records(key) -> np.ndarray:
    """The key's (seed, share) records, uint8 of shape (rows, tuples, seed + share bytes)."""
    _, rows, width = key.shares.shape
    flat = encode_vector(key.shares.reshape(-1, rows * width), key.params.modulus)
    shares = np.frombuffer(flat, dtype=np.uint8).reshape(rows, width, -1)
    return np.concatenate([key.seeds, shares], axis=2)


def _read_records(raw: np.ndarray, params: dpf.SchemeParams) -> tuple[np.ndarray, np.ndarray]:
    """Seeds and shares from `_records`' layout, refusing an absent seed."""
    rows, width, _ = raw.shape
    seeds = raw[:, :, : params.lambda_bits // 8]
    if not seeds.any(axis=2).all():
        raise FormatError("absent-seed sentinel inside a key body")
    shares = decode_vector(raw[:, :, seeds.shape[2] :].tobytes(), params.modulus, rows * width)
    return seeds, shares.reshape(-1, rows, width)


def _encode_dpf(key: dpf.DpfKey) -> bytes:
    return _records(key).tobytes() + encode_vector(key.correction, key.params.modulus)


def _decode_dpf(reader: _Reader, params: dpf.SchemeParams, party: int) -> dict:
    """Read the (seed, share) records of every row, then the correction."""
    rows, width = params.rows, params.tuples_per_row
    record = params.lambda_bits // 8 + element_width(params.modulus)
    raw = np.frombuffer(reader.take(rows * width * record), dtype=np.uint8)
    seeds, shares = _read_records(raw.reshape(rows, width, record), params)
    correction = _take_vector(reader, params.modulus, params.cols)
    return dict(party=party, params=params, seeds=seeds, shares=shares, correction=correction)


def _encode_dcf(key: dcf.DcfKey) -> bytes:
    return _encode_dpf(key) + encode_vector(key.row_outputs, key.params.modulus)


def _decode_dcf(reader: _Reader, params: dpf.SchemeParams, party: int) -> dict:
    fields = _decode_dpf(reader, params, party)
    return dict(fields, row_outputs=_take_vector(reader, params.modulus, params.rows))


def _encode_boyle(key: baselines.BoyleKey) -> bytes:
    """The body as one array: per row the u32 tuple count, then its
    (column u32, seed, share) records."""
    rows, held = key.columns.shape
    columns = key.columns.astype("<u4").view(np.uint8).reshape(rows, held, 4)
    records = np.concatenate([columns, _records(key)], axis=2).reshape(rows, -1)
    counts = np.full((rows, 1), held, dtype="<u4").view(np.uint8)
    body = np.concatenate([counts, records], axis=1).tobytes()
    return body + encode_vector(key.correction, key.params.modulus)


def _decode_boyle(reader: _Reader, params: dpf.SchemeParams, party: int) -> dict:
    """`boyle_held_count`, which refuses what `boyle_gen` refuses, then the body in
    one read: that many records a row, whose columns `BoyleKey` checks."""
    held = baselines.boyle_held_count(params)
    modulus = params.modulus
    record = 4 + params.lambda_bits // 8 + element_width(modulus)
    raw = np.frombuffer(reader.take(params.rows * (4 + held * record)), np.uint8)
    raw = raw.reshape(params.rows, -1)
    if (raw[:, :4].copy().view("<u4") != held).any():
        raise FormatError(f"a row's tuple count is not q^(p-2)(q-1) = {held}")
    raw = raw[:, 4:].reshape(params.rows, held, record)
    columns = raw[:, :, :4].copy().view("<u4")[:, :, 0].astype(np.uint32)
    seeds, shares = _read_records(raw[:, :, 4:], params)
    fields = dict(party=party, params=params, columns=columns, seeds=seeds, shares=shares)
    return dict(fields, correction=_take_vector(reader, modulus, params.cols))


def _encode_trivial(key: baselines.TrivialKey) -> bytes:
    return encode_vector(key.table, key.params.modulus)


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
    encode: Callable[..., bytes]
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
    """Serialize any scheme's key into the container format."""
    for tag, scheme in SCHEMES.items():
        if type(key) is scheme.key_class:
            return _pack_header(tag, key.party, key.params) + scheme.encode(key)
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
