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

followed by a scheme-specific body: the uint8 regions, in order, that
the `regions` rule of the scheme's `SCHEMES` entry gives for the header's
parameters, and nothing after them.  Field elements are encoded factor
by factor as ceil(ceil(lg q)/8) little-endian bytes each; seeds take
lambda/8 bytes.

The all-zero seed value is reserved to mean "absent" and never appears
in a well-formed file.  `SCHEMES` maps each tag to its CLI name, key
class, generator, body regions and body codec.
"""

from __future__ import annotations

import os
import stat
import struct
from functools import lru_cache
from math import prod
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, dcf, dpf
from .algebra import BODY_PEAK, Modulus, check_budget
from .errors import DpfError, FormatError, ParameterError, check_range

MAGIC = b"DPFK"
VERSION = 1

_HEADER = struct.Struct("<4sBBHHHHQII")
_FACTOR = struct.Struct("<Q")
_PRG = struct.Struct("<BHI")
_CHUNK = 1 << 20


def _factor_widths(modulus: Modulus) -> list[int]:
    return [((q - 1).bit_length() + 7) // 8 for q in modulus.factors]


def element_width(modulus: Modulus) -> int:
    """Serialized bytes per field element."""
    return sum(_factor_widths(modulus))


def _encode(data: np.ndarray, modulus: Modulus, raw: np.ndarray) -> None:
    """`data`, uint64 of shape (factors, *shape), written into `raw`, uint8 of
    shape (*shape, element width), whose last axis is contiguous: each
    factor's residues in one cast to its width's little-endian words."""
    start = 0
    for fi, width in enumerate(_factor_widths(modulus)):
        low = 2 if width == 3 else width  # no 3-byte dtype: the low two, then the third
        raw[..., start : start + low].view(f"<u{low}")[..., 0] = data[fi]
        if width == 3:
            raw[..., start + 2] = data[fi] >> 16
        start += width


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
    raw = np.empty((data.shape[1], element_width(modulus)), dtype=np.uint8)
    _encode(data, modulus, raw)
    return raw.tobytes()


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


def _need(size: int, end: int) -> None:
    if size < end:
        raise FormatError(f"key data truncated at byte {size}")


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
    _need(len(data), _HEADER.size)
    magic, version, scheme, party, parties, corrupted, lam, domain, rows, cols = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if scheme not in SCHEMES:
        raise FormatError(f"unknown scheme tag {scheme}")
    check_range("party", party, 0, parties, FormatError)
    _need(len(data), _HEADER.size + 1)
    count = data[_HEADER.size]
    offset = _HEADER.size + 1 + _FACTOR.size * count + _PRG.size
    _need(len(data), offset)
    factors = struct.unpack_from(f"<{count}Q", data, _HEADER.size + 1)
    algorithm, prg_lam, prg_len = _PRG.unpack_from(data, offset - _PRG.size)
    if (prg_lam, prg_len) != (lam, cols):
        raise FormatError(
            f"prg seed length {prg_lam} and output length {prg_len} disagree "
            f"with the header's {lam} and {cols}"
        )
    params = _header_params(parties, corrupted, lam, factors, domain, rows, cols, algorithm)
    return scheme, party, params, offset


def _dpf_regions(params: dpf.SchemeParams) -> list[tuple[int, ...]]:
    """R rows of C(p-1, m) (seed, share) records, then the correction's V elements."""
    width = element_width(params.modulus)
    seed = params.lambda_bits // 8
    return [(params.rows, params.tuples_per_row, seed + width), (params.cols, width)]


def _encode_dpf(key: dpf.DpfKey, records: np.ndarray, correction: np.ndarray) -> None:
    """Fill `records`, (rows, tuples, seed + share bytes), and `correction` from the key."""
    seed = key.params.lambda_bits // 8
    records[..., :seed] = key.seeds
    _encode(key.shares, key.params.modulus, records[..., seed:])
    _encode(key.correction, key.params.modulus, correction)


def _decode_dpf(params: dpf.SchemeParams, party: int, records, correction) -> dict:
    """The fields that `_encode_dpf` wrote, seeds as views; an absent seed is refused."""
    seed = params.lambda_bits // 8
    seeds = records[..., :seed]
    if not (seeds.view(f"S{seed}") != b"").all():  # an all-zero seed reads as b""
        raise FormatError("absent-seed sentinel inside a key body")
    shares = _decode(records[..., seed:], params.modulus)
    correction = _decode(correction, params.modulus)
    return dict(party=party, params=params, seeds=seeds, shares=shares, correction=correction)


def _dcf_regions(params: dpf.SchemeParams) -> list[tuple[int, ...]]:
    """The point scheme's regions, then R per-row output shares."""
    return [*_dpf_regions(params), (params.rows, element_width(params.modulus))]


def _encode_dcf(key: dcf.DcfKey, records, correction, row_outputs: np.ndarray) -> None:
    _encode_dpf(key, records, correction)
    _encode(key.row_outputs, key.params.modulus, row_outputs)


def _decode_dcf(params: dpf.SchemeParams, party: int, records, correction, row_outputs) -> dict:
    fields = _decode_dpf(params, party, records, correction)
    return dict(fields, row_outputs=_decode(row_outputs, params.modulus))


def _boyle_regions(params: dpf.SchemeParams) -> list[tuple[int, ...]]:
    """R rows, each a u32 tuple count T = `boyle_held_count`, which refuses what
    `boyle_gen` refuses, then T (column u32, seed, share) records in ascending
    column order, for the columns with a non-zero share; then V correction elements."""
    width = element_width(params.modulus)
    record = 4 + params.lambda_bits // 8 + width
    return [(params.rows, 4 + baselines.boyle_held_count(params) * record), (params.cols, width)]


def _encode_boyle(key: baselines.BoyleKey, rows: np.ndarray, correction: np.ndarray) -> None:
    held = key.seeds.shape[1]
    rows[:, :4].view("<u4")[...] = held
    records = rows[:, 4:].reshape(len(rows), held, -1)
    records[..., :4].view("<u4")[..., 0] = key.columns
    _encode_dpf(key, records[..., 4:], correction)


def _decode_boyle(params: dpf.SchemeParams, party: int, rows, correction) -> dict:
    """Every row's tuple count must be T; `BoyleKey` checks the columns."""
    held = baselines.boyle_held_count(params)
    if (rows[:, :4].view("<u4") != held).any():
        raise FormatError(f"a row's tuple count is not q^(p-2)(q-1) = {held}")
    records = rows[:, 4:].reshape(params.rows, held, -1)
    columns = records[..., :4].view("<u4")[..., 0].astype(np.uint32)
    return dict(_decode_dpf(params, party, records[..., 4:], correction), columns=columns)


def _trivial_regions(params: dpf.SchemeParams) -> list[tuple[int, ...]]:
    """The table's N elements."""
    return [(params.domain_size, element_width(params.modulus))]


def _encode_trivial(key: baselines.TrivialKey, table: np.ndarray) -> None:
    _encode(key.table, key.params.modulus, table)


def _decode_trivial(params: dpf.SchemeParams, party: int, table) -> dict:
    table = _decode(table, params.modulus)
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
    regions: Callable[..., list]  # the body's uint8 region shapes, in file order
    encode: Callable[..., None]  # fills the regions from a key
    decode: Callable[..., dict]  # the key's fields from the regions, for key_class


SCHEMES = {
    1: _Scheme("ours", dpf.DpfKey, dpf.gen, _dpf_regions, _encode_dpf, _decode_dpf),
    2: _Scheme(
        "boyle15", baselines.BoyleKey, baselines.boyle_gen,
        _boyle_regions, _encode_boyle, _decode_boyle,
    ),
    3: _Scheme(
        "trivial", baselines.TrivialKey, baselines.trivial_gen,
        _trivial_regions, _encode_trivial, _decode_trivial,
    ),
    4: _Scheme("dcf", dcf.DcfKey, dcf.dcf_gen, _dcf_regions, _encode_dcf, _decode_dcf),
}


def _cut(body: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """`body`, flat uint8, as consecutive views of these shapes."""
    regions, start = [], 0
    for shape in shapes:
        regions.append(body[start : start + prod(shape)].reshape(shape))
        start += prod(shape)
    return regions


def key_to_bytes(key) -> bytes:
    """Serialize any scheme's key into the container format: its scheme's
    regions, filled in place in one body, joined behind the header in one copy."""
    for tag, scheme in SCHEMES.items():
        if type(key) is scheme.key_class:
            shapes = scheme.regions(key.params)
            body = np.empty(sum(map(prod, shapes)), np.uint8)
            scheme.encode(key, *_cut(body, shapes))
            return b"".join([_pack_header(tag, key.party, key.params), body])
    raise ParameterError(f"cannot serialize {type(key).__name__}")


def _decode_key(data, size: int):
    """The key at the start of `data`: all `size` bytes of its file, or at least its
    declared length.  A short file is refused before decoding, trailing bytes after."""
    tag, party, params, offset = parse_header(data)
    scheme = SCHEMES[tag]
    try:
        shapes = scheme.regions(params)
        end = offset + sum(map(prod, shapes))
        _need(size, end)
        check_budget(end - offset, BODY_PEAK, "a key body")
        body = np.frombuffer(data, np.uint8, end - offset, offset)
        key = scheme.key_class(**scheme.decode(params, party, *_cut(body, shapes)))
    except ParameterError as exc:
        raise FormatError(f"invalid {scheme.name} key: {exc}") from exc
    if size != end:
        raise FormatError(f"{size - end} trailing bytes after key body")
    return key


def key_from_bytes(data: bytes):
    """Parse a key of any scheme; the result type follows the scheme tag."""
    return _decode_key(data, len(data))


def write_key_file(path, key) -> int:
    """Write a key; returns the byte count."""
    blob = key_to_bytes(key)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def read_bounded(fh, count: int) -> bytes:
    """Up to `count` bytes of the open file `fh`, fewer at its end, read in
    chunks of at most 1 MiB: a length that a file declares reserves no
    memory that the file does not hold."""
    chunks = []
    while count > 0 and (chunk := fh.read(min(count, _CHUNK))):
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def file_size(fh) -> int | None:
    """The open file's length, which a regular file's metadata gives without
    reading its tail; None for any other file."""
    info = os.fstat(fh.fileno())
    return info.st_size if stat.S_ISREG(info.st_mode) else None


def read_key_bytes(fh) -> tuple[bytes, int]:
    """The key at the start of the open file `fh`, read in order and never past
    its declared length plus one byte: the fixed header, the factor list, then
    the body that its scheme's regions declare, once it is charged against
    EVAL_BUDGET.  Returns those bytes and the file's length (`file_size`, or
    the bytes read)."""
    data = read_bounded(fh, _HEADER.size + 1)
    if len(data) > _HEADER.size:
        data += read_bounded(fh, _FACTOR.size * data[_HEADER.size] + _PRG.size)
    tag, _, params, offset = parse_header(data)
    try:
        end = offset + sum(map(prod, SCHEMES[tag].regions(params)))
        check_budget(end - offset, BODY_PEAK, "a key body")
    except DpfError:  # refused with its message when decoded; `inspect` prints the header
        end = offset
    data += read_bounded(fh, end + 1 - len(data))
    size = file_size(fh)
    return data, len(data) if size is None else size


def read_key_file(path):
    """Read a key file to its declared length; see `read_key_bytes`."""
    with open(path, "rb") as fh:
        return _decode_key(*read_key_bytes(fh))
