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
    prg spec     7 bytes  algorithm u8, lambda u16, output length u32

followed by a scheme-specific body.  Field elements are encoded factor by
factor as ceil(ceil(lg q)/8) little-endian bytes each; seeds take
lambda/8 bytes.

    scheme 1: R rows, each C(p-1, m) tuples of (seed, share);
              then the correction vector, cols elements.
    scheme 2: R rows, each a u32 tuple count then tuples of
              (column u32, seed, share), ascending column order,
              only columns with a non-zero share; then the correction
              vector, cols elements.
    scheme 3: the table, N elements.  No rows, no correction.
    scheme 4: the scheme-1 body, then R per-row output shares.

The all-zero seed value is reserved to mean "absent" and never appears
in a well-formed file.  `SCHEMES` maps each tag to its CLI name, key
class and body codec.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, dcf, dpf
from .algebra import FieldVector, Modulus
from .errors import FormatError, ParameterError
from .prg import PrgSpec

MAGIC = b"DPFK"
VERSION = 1

_HEADER = struct.Struct("<4sBBHHHHQII")
_FACTOR = struct.Struct("<Q")
_U32 = struct.Struct("<I")


def element_width(modulus: Modulus) -> int:
    """Serialized bytes per field element."""
    return sum(((q - 1).bit_length() + 7) // 8 for q in modulus.factors)


def _factor_widths(modulus: Modulus) -> list[int]:
    return [((q - 1).bit_length() + 7) // 8 for q in modulus.factors]


def encode_vector(vec: FieldVector) -> bytes:
    widths = _factor_widths(vec.modulus)
    n = len(vec)
    columns = []
    for fi in range(len(vec.modulus.factors)):
        row = vec.data[fi]
        for k in range(widths[fi]):
            columns.append(((row >> np.uint64(8 * k)) & np.uint64(0xFF)).astype(np.uint8))
    if not columns:
        return b""
    stacked = np.stack(columns, axis=1)
    assert stacked.shape == (n, sum(widths))
    return stacked.tobytes()


def decode_vector(data: bytes, modulus: Modulus, count: int) -> FieldVector:
    widths = _factor_widths(modulus)
    total = sum(widths)
    if len(data) != count * total:
        raise FormatError(
            f"element block is {len(data)} bytes, expected {count * total}"
        )
    mat = np.frombuffer(data, dtype=np.uint8).reshape(count, total).astype(np.uint64)
    arr = np.zeros((len(modulus.factors), count), dtype=np.uint64)
    offset = 0
    for fi, w in enumerate(widths):
        for k in range(w):
            arr[fi] |= mat[:, offset + k] << np.uint64(8 * k)
        offset += w
    if arr.size and not (arr < modulus._qs_np).all():
        raise FormatError("element residue out of range for its factor")
    return FieldVector._raw(modulus, arr)


@dataclass(frozen=True)
class KeyHeader:
    scheme: int
    party: int
    parties: int
    corrupted: int
    lambda_bits: int
    domain_size: int
    rows: int
    cols: int
    modulus: Modulus
    prg: PrgSpec

    def to_params(self) -> dpf.SchemeParams:
        return dpf.SchemeParams(
            parties=self.parties,
            corrupted=self.corrupted,
            lambda_bits=self.lambda_bits,
            modulus=self.modulus,
            domain_size=self.domain_size,
            rows=self.rows,
            cols=self.cols,
            prg=self.prg,
        )


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
    parts = [head, bytes([len(params.modulus.factors)])]
    for q in params.modulus.factors:
        parts.append(_FACTOR.pack(q))
    parts.append(params.prg.to_bytes())
    return b"".join(parts)


def header_size(modulus: Modulus) -> int:
    return _HEADER.size + 1 + 8 * len(modulus.factors) + 7


def parse_header(data: bytes) -> tuple[KeyHeader, int]:
    """Parse the fixed header; returns (header, body offset)."""
    if len(data) < _HEADER.size + 1:
        raise FormatError("key data shorter than the fixed header")
    magic, version, scheme, party, parties, corrupted, lam, domain, rows, cols = (
        _HEADER.unpack_from(data, 0)
    )
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if scheme not in SCHEMES:
        raise FormatError(f"unknown scheme tag {scheme}")
    if party >= parties:
        raise FormatError(f"party {party} out of range for {parties} parties")
    offset = _HEADER.size
    n_factors = data[offset]
    offset += 1
    if len(data) < offset + 8 * n_factors + 7:
        raise FormatError("truncated header")
    factors = []
    for _ in range(n_factors):
        (q,) = _FACTOR.unpack_from(data, offset)
        factors.append(q)
        offset += 8
    try:
        modulus = Modulus(tuple(int(q) for q in factors))
        spec = PrgSpec.from_bytes(data[offset : offset + 7], modulus)
    except ParameterError as exc:
        raise FormatError(f"invalid key header: {exc}") from exc
    offset += 7
    if spec.lambda_bits != lam:
        raise FormatError("prg seed length disagrees with header")
    header = KeyHeader(
        scheme=scheme,
        party=party,
        parties=parties,
        corrupted=corrupted,
        lambda_bits=lam,
        domain_size=domain,
        rows=rows,
        cols=cols,
        modulus=modulus,
        prg=spec,
    )
    return header, offset


class _Reader:
    def __init__(self, data: bytes, offset: int):
        self.data = data
        self.offset = offset

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise FormatError("truncated key body")
        out = self.data[self.offset : self.offset + n]
        self.offset += n
        return out

    def u32(self) -> int:
        (v,) = _U32.unpack(self.take(4))
        return v

    def done(self) -> None:
        if self.offset != len(self.data):
            raise FormatError(
                f"{len(self.data) - self.offset} trailing bytes after key body"
            )


def _take_vector(reader: _Reader, modulus: Modulus, count: int) -> FieldVector:
    return decode_vector(reader.take(count * element_width(modulus)), modulus, count)


def _encode_dpf(key: dpf.DpfKey) -> bytes:
    rows, width, _ = key.seeds.shape
    flat = FieldVector._raw(key.params.modulus, key.shares.reshape(-1, rows * width))
    shares = np.frombuffer(encode_vector(flat), dtype=np.uint8).reshape(rows, width, -1)
    body = np.concatenate([key.seeds, shares], axis=2).tobytes()
    return body + encode_vector(key.correction)


def _decode_dpf(reader: _Reader, params: dpf.SchemeParams, party: int) -> dpf.DpfKey:
    """Read the (seed, share) records of every row, then the correction."""
    rows, width = params.rows, params.tuples_per_row
    seed_len = params.lambda_bits // 8
    record = seed_len + element_width(params.modulus)
    raw = np.frombuffer(reader.take(rows * width * record), dtype=np.uint8)
    raw = raw.reshape(rows, width, record)
    seeds = raw[:, :, :seed_len]
    if not seeds.any(axis=2).all():
        raise FormatError("absent-seed sentinel inside a key body")
    shares = decode_vector(raw[:, :, seed_len:].tobytes(), params.modulus, rows * width)
    return dpf.DpfKey(
        party=party,
        params=params,
        seeds=seeds,
        shares=shares.data.reshape(-1, rows, width),
        correction=_take_vector(reader, params.modulus, params.cols),
    )


def _encode_dcf(key: dcf.DcfKey) -> bytes:
    return _encode_dpf(key.point_key) + encode_vector(key.row_outputs)


def _decode_dcf(reader: _Reader, params: dpf.SchemeParams, party: int) -> dcf.DcfKey:
    point_key = _decode_dpf(reader, params, party)
    return dcf.DcfKey(point_key, _take_vector(reader, params.modulus, params.rows))


def _encode_boyle(key: baselines.BoyleKey) -> bytes:
    """Each row as a u32 record count, then its records as one array."""
    modulus = key.params.modulus
    width = element_width(modulus)
    parts = []
    for columns, seeds, shares in key.rows:
        count = len(columns)
        residues = encode_vector(FieldVector._raw(modulus, shares))
        records = np.concatenate(
            [
                columns.astype("<u4").view(np.uint8).reshape(count, 4),
                seeds,
                np.frombuffer(residues, np.uint8).reshape(count, width),
            ],
            axis=1,
        )
        parts += [_U32.pack(count), records.tobytes()]
    return b"".join(parts) + encode_vector(key.correction)


def _decode_boyle(
    reader: _Reader, params: dpf.SchemeParams, party: int
) -> baselines.BoyleKey:
    modulus = params.modulus
    column_count = baselines.boyle_column_count(params)
    seed_end = 4 + params.lambda_bits // 8
    record = seed_end + element_width(modulus)
    rows = []
    for _ in range(params.rows):
        count = reader.u32()
        if count > column_count:
            raise FormatError("tuple count exceeds the column count")
        raw = np.frombuffer(reader.take(count * record), np.uint8).reshape(count, record)
        columns = np.frombuffer(raw[:, :4].tobytes(), "<u4").astype(np.uint32)
        if (columns[1:] <= columns[:-1]).any() or (columns >= column_count).any():
            raise FormatError("column indexes must be ascending and in range")
        seeds = raw[:, 4:seed_end]
        if not seeds.any(axis=1).all():
            raise FormatError("absent-seed sentinel inside a key body")
        shares = decode_vector(raw[:, seed_end:].tobytes(), modulus, count)
        rows.append((columns, seeds, shares.data))
    return baselines.BoyleKey(
        party=party,
        params=params,
        rows=tuple(rows),
        correction=_take_vector(reader, modulus, params.cols),
    )


def _encode_trivial(key: baselines.TrivialKey) -> bytes:
    return encode_vector(key.table)


def _decode_trivial(
    reader: _Reader, params: dpf.SchemeParams, party: int
) -> baselines.TrivialKey:
    table = _take_vector(reader, params.modulus, params.domain_size)
    return baselines.TrivialKey(party, params, table)


class _Scheme(NamedTuple):
    name: str
    key_class: type
    encode: Callable[..., bytes]
    decode: Callable[..., object]


SCHEMES = {
    1: _Scheme("ours", dpf.DpfKey, _encode_dpf, _decode_dpf),
    2: _Scheme("boyle15", baselines.BoyleKey, _encode_boyle, _decode_boyle),
    3: _Scheme("trivial", baselines.TrivialKey, _encode_trivial, _decode_trivial),
    4: _Scheme("dcf", dcf.DcfKey, _encode_dcf, _decode_dcf),
}


def key_to_bytes(key) -> bytes:
    """Serialize any scheme's key into the container format."""
    for tag, scheme in SCHEMES.items():
        if type(key) is scheme.key_class:
            return _pack_header(tag, key.party, key.params) + scheme.encode(key)
    raise ParameterError(f"cannot serialize {type(key).__name__}")


def key_from_bytes(data: bytes):
    """Parse a key of any scheme; the result type follows the scheme tag."""
    header, offset = parse_header(data)
    try:
        params = header.to_params()
    except ParameterError as exc:
        raise FormatError(f"invalid key header: {exc}") from exc
    reader = _Reader(data, offset)
    key = SCHEMES[header.scheme].decode(reader, params, header.party)
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
