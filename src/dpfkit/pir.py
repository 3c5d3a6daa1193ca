"""Single-query private information retrieval on top of the point scheme.

The client shares the point function 1 at its query index among the
servers; each server inner-products its full evaluation vector with the
database and returns a single element, and the client sums the answers.
Per-query upload is p keys and download is p elements, against the
trivial N-element transfer.

The server is the linear one of Chor, Goldreich, Kushilevitz and Sudan
(FOCS 1995), streamed: it evaluates its key one grid row at a time and
folds each row into the answer, reading the database once, row by row.
Its working memory is O(F*V) for F modulus factors and V grid columns,
not the O(F*N) of a full evaluation vector.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from random import Random
from typing import Iterable

import numpy as np

from . import keyfile
from .algebra import BODY_PEAK, FieldElement, FieldVector, Modulus, check_budget
from .dpf import DpfKey, PointDescription, SchemeParams, _reduce, decode, eval_rows, gen
from .dpf import eval_all  # unused here, but the benchmark wraps `pir.eval_all`
from .errors import FormatError, ParameterError

_COUNT = struct.Struct("<Q")


@dataclass(frozen=True)
class Database:
    """An indexed table of elements all under one modulus."""

    modulus: Modulus
    entries: FieldVector

    def __post_init__(self) -> None:
        if self.entries.modulus != self.modulus:
            raise ParameterError("database entries use a different modulus")

    def __len__(self) -> int:
        return len(self.entries)


def write_blocks(path, count: int, blocks: Iterable[np.ndarray], modulus: Modulus) -> None:
    """Write `count` entries in (factors, n) `blocks`; a failing block leaves a short file."""
    with open(path, "wb") as fh:
        fh.write(_COUNT.pack(count))
        for block in blocks:
            fh.write(keyfile.encode_vector(block, modulus))


def write_database(path, db: Database) -> None:
    write_blocks(path, len(db), [db.entries.data], db.modulus)


def read_database(path, modulus: Modulus) -> Database:
    """The database in `path`, read no further than its declared length plus one
    byte, once it is charged against EVAL_BUDGET; a regular file shorter than
    that is refused unread, from its metadata."""
    with open(path, "rb") as fh:
        head = keyfile.read_bounded(fh, _COUNT.size)
        if len(head) < _COUNT.size:
            raise FormatError("database file too short for its length prefix")
        (count,) = _COUNT.unpack(head)
        length = count * keyfile.element_width(modulus)
        size = keyfile.file_size(fh)
        if size is not None and size < _COUNT.size + length:
            raise FormatError(f"element block is {size - _COUNT.size} bytes, expected {length}")
        check_budget(length, BODY_PEAK, "a database")
        body = keyfile.read_bounded(fh, length + 1)
    entries = keyfile.decode_vector(body, modulus, count)
    return Database(modulus, FieldVector._raw(modulus, entries))


def pir_query(
    index: int, params: SchemeParams, rng: Random
) -> tuple[DpfKey, ...]:
    """Keys for a lookup of entry `index`, one key per server."""
    point = PointDescription(alpha=index, beta=params.modulus.one())
    return gen(point, params, rng)


def pir_answer(key: DpfKey, db: Database) -> FieldElement:
    """One server's share of the selected entry, streamed row by row.

    Each row from `eval_rows` is multiplied into its database entries,
    reduced, summed per factor and reduced again.  Residues are below
    2**31, so every product is below 2**62, and a sum of fewer than 2**32
    reduced terms (a row's columns, or the rows' totals) is below 2**63.
    """
    params = key.params
    if len(db) != params.domain_size:
        raise ParameterError(
            f"database has {len(db)} entries but keys cover {params.domain_size}"
        )
    if db.modulus != params.modulus:
        raise ParameterError("database modulus differs from the key modulus")
    qs = params.modulus._qs_np
    entries = db.entries.data
    scratch = np.empty((len(qs), params.cols), dtype=np.uint64)
    total = np.zeros(len(qs), dtype=np.uint64)
    for start, shares in eval_rows(key):
        width = shares.shape[1]
        shares *= entries[:, start : start + width]
        _reduce(shares, qs, scratch[:, :width])
        total += shares.sum(axis=1) % qs[:, 0]
    total %= qs[:, 0]
    return FieldElement(params.modulus, tuple(int(v) for v in total))


def pir_reconstruct(answers, params: SchemeParams) -> FieldElement:
    """Combine all server answers into the queried entry."""
    return decode(answers, expected_count=params.parties)


@dataclass(frozen=True)
class PirTranscript:
    """Bandwidth accounting for one query, in bits."""

    upload_bits: int
    download_bits: int
    trivial_bits: int


def pir_demo(
    db: Database,
    index: int,
    parties: int,
    corrupted: int,
    lambda_bits: int,
    rng: Random,
    grid: str = "auto",
) -> tuple[FieldElement, PirTranscript]:
    """Run one full query against a local database and account bandwidth."""
    params = SchemeParams.create(
        parties=parties,
        corrupted=corrupted,
        modulus=db.modulus,
        domain_size=len(db),
        lambda_bits=lambda_bits,
        grid=grid,
    )
    keys = pir_query(index, params, rng)
    answers = [pir_answer(key, db) for key in keys]
    value = pir_reconstruct(answers, params)
    upload = sum(8 * len(keyfile.key_to_bytes(key)) for key in keys)
    download = parties * 8 * keyfile.element_width(db.modulus)
    trivial = len(db) * db.modulus.residue_bits
    return value, PirTranscript(upload, download, trivial)
