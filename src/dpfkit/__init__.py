"""Compact multi-party secret sharing of point and comparison functions.

The core scheme splits f(x) = beta * [x == alpha] into one key per
party; any honest-majority subset of key holders learns nothing about
(alpha, beta), while per-input evaluations sum to f(x).  Keys grow with
the square root of the domain instead of linearly, moduli may be
composite (handled factor-wise via residue vectors), and two reference
schemes plus analytic size models support benchmarking.  A small PIR
harness demonstrates the standard application.
"""

from .algebra import (
    FieldElement,
    FieldVector,
    Modulus,
    is_prime,
    minimize_grid,
    parse_modulus,
    primorial,
)
from .baselines import (
    COLUMN_GUARD,
    BoyleKey,
    TrivialKey,
    boyle_column_count,
    boyle_gen,
    trivial_gen,
)
from .dcf import DcfKey, dcf_eval, dcf_gen
from .dpf import (
    GRID_AUTO,
    GRID_SQUARE,
    CoalitionView,
    DpfKey,
    PointDescription,
    SchemeParams,
    check_seed_coverage,
    choose_grid,
    decode,
    eval_all,
    eval_point,
    gen,
    simulate_coalition_view,
)
from .errors import (
    DpfError,
    FormatError,
    GuardError,
    HonestMajorityError,
    InternalError,
    ParameterError,
)
from .keyfile import (
    key_from_bytes,
    key_to_bytes,
    read_key_file,
    write_key_file,
)
from .pir import (
    Database,
    PirTranscript,
    pir_answer,
    pir_demo,
    pir_query,
    pir_reconstruct,
    read_database,
    write_database,
)
from .prg import (
    PRG_SHAKE128,
    PRG_TEST_LCG,
    DeterministicRandomSource,
    PrgSpec,
    expand,
    expansion_count,
    sample_seeds,
)
from .sizing import (
    FigureDataset,
    crossover_report,
    emit_figure,
    size_boyle,
    size_boyle_crt,
    size_bunn_it,
    size_bunn_prg,
    size_dcf,
    size_ours,
    size_trivial,
)

__version__ = "0.1.0"

__all__ = [
    "BoyleKey",
    "COLUMN_GUARD",
    "CoalitionView",
    "Database",
    "DcfKey",
    "DeterministicRandomSource",
    "DpfError",
    "DpfKey",
    "FieldElement",
    "FieldVector",
    "FigureDataset",
    "FormatError",
    "GRID_AUTO",
    "GRID_SQUARE",
    "GuardError",
    "HonestMajorityError",
    "InternalError",
    "Modulus",
    "PRG_SHAKE128",
    "PRG_TEST_LCG",
    "ParameterError",
    "PirTranscript",
    "PointDescription",
    "PrgSpec",
    "SchemeParams",
    "TrivialKey",
    "boyle_column_count",
    "boyle_gen",
    "check_seed_coverage",
    "choose_grid",
    "crossover_report",
    "dcf_eval",
    "dcf_gen",
    "decode",
    "emit_figure",
    "eval_all",
    "eval_point",
    "expand",
    "expansion_count",
    "gen",
    "is_prime",
    "key_from_bytes",
    "key_to_bytes",
    "minimize_grid",
    "parse_modulus",
    "pir_answer",
    "pir_demo",
    "pir_query",
    "pir_reconstruct",
    "primorial",
    "read_database",
    "read_key_file",
    "sample_seeds",
    "simulate_coalition_view",
    "size_boyle",
    "size_boyle_crt",
    "size_bunn_it",
    "size_bunn_prg",
    "size_dcf",
    "size_ours",
    "size_trivial",
    "trivial_gen",
    "write_database",
    "write_key_file",
]
