"""Key generation, evaluation, and decoding of the compact point scheme."""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpfkit import dpf
from dpfkit.algebra import FieldVector, Modulus, parse_modulus
from dpfkit.baselines import (
    boyle_gen,
    trivial_eval,
    trivial_eval_all,
    trivial_gen,
)
from dpfkit.dcf import dcf_eval, dcf_eval_all, dcf_gen
from dpfkit.dpf import (
    GRID_SQUARE,
    DpfKey,
    PointDescription,
    SchemeParams,
    _combine_row,
    _deal,
    _distinct_seeds,
    _reduce,
    choose_grid,
    decode,
    eval_all,
    eval_point,
    eval_rows,
    gen,
)
from dpfkit.errors import GuardError, HonestMajorityError, ParameterError
from dpfkit.keyfile import key_to_bytes
from dpfkit.prg import PRG_SHAKE128, PRG_TEST_LCG, DeterministicRandomSource, PrgSpec


def _make(parties, corrupted, modulus_text, domain, **kw):
    return SchemeParams.create(
        parties=parties,
        corrupted=corrupted,
        modulus=parse_modulus(modulus_text),
        domain_size=domain,
        **kw,
    )


def _decode_all(keys, n):
    return [
        decode([eval_point(k, x) for k in keys]).lift() for x in range(n)
    ]


class TestParams:
    def test_create_picks_covering_grid(self):
        params = _make(3, 1, "5", 20)
        assert params.rows * params.cols >= 20
        assert params.combo_count == comb(3, 2)
        assert params.tuples_per_row == comb(2, 1)

    def test_square_grid(self):
        params = _make(3, 1, "5", 13, grid=GRID_SQUARE)
        assert (params.rows, params.cols) == (4, 4)

    def test_explicit_grid(self):
        params = _make(3, 1, "5", 12, grid=(3, 4))
        assert (params.rows, params.cols) == (3, 4)
        with pytest.raises(ParameterError):
            _make(3, 1, "5", 13, grid=(3, 4))

    def test_bad_counts_rejected(self):
        for parties, corrupted in ((1, 1), (3, 0), (3, 3), (3, 4)):
            with pytest.raises(ParameterError):
                _make(parties, corrupted, "5", 4)

    def test_prg_spec_follows_the_params(self):
        modulus = parse_modulus("5")
        params = SchemeParams(3, 1, 64, modulus, 4, 1, 4)
        assert params.prg_algorithm == PRG_SHAKE128
        assert params.prg == PrgSpec(PRG_SHAKE128, 64, 4, modulus)
        # PrgSpec's checks run when the params are created.
        for tag, lambda_bits in ((7, 128), (PRG_SHAKE128, 12), (PRG_SHAKE128, 0)):
            with pytest.raises(ParameterError):
                SchemeParams(3, 1, lambda_bits, modulus, 4, 1, 4, tag)

    def test_domain_bounds(self):
        with pytest.raises(ParameterError):
            _make(3, 1, "5", 0)
        _make(3, 1, "5", 1)

    def test_dishonest_majority_params_constructible(self):
        # the type allows m >= p/2 so reference schemes can use it;
        # gen() is where the bound is enforced
        params = _make(4, 2, "5", 4)
        assert not params.honest_majority

    def test_used_rows_partial_last_row(self):
        params = _make(3, 1, "5", 10, grid=(5, 4))
        assert params.used_rows() == 3

    def test_member_columns_partition(self):
        params = _make(5, 2, "7", 9)
        seen = []
        for party in range(5):
            cols = params.member_columns(party)
            assert len(cols) == params.tuples_per_row
            seen.extend(cols)
        # every column has exactly m+1 members
        for j in range(params.combo_count):
            assert seen.count(j) == 3


class TestSharing:
    def test_deal_sums_to_secret_on_member_columns(self, rng):
        modulus = parse_modulus("2*3*5")
        qs = modulus._qs_np
        secrets = FieldVector.random(modulus, 9, rng).data
        for count in (2, 3, 7):
            shares = _deal(secrets, count, modulus, rng)
            assert shares.shape == (3, 9, count)
            assert (shares < qs[:, :, None]).all()
            assert (shares.sum(axis=2) % qs == secrets).all()

        # in real keys, column j is held by exactly its subset, and the
        # members' shares sum to 1 on the target row and 0 elsewhere
        params = _make(5, 2, "2*3", 9, grid=(3, 3))
        keys = gen(PointDescription(4, params.modulus.one()), params, rng)
        expected = np.zeros((2, params.rows), dtype=np.uint64)
        expected[:, 1] = 1
        for j, subset in enumerate(params.combinations):
            holders = [k for k in keys if j in params.member_columns(k.party)]
            assert tuple(k.party for k in holders) == subset
            total = sum(
                k.shares[:, :, params.member_columns(k.party).index(j)] for k in holders
            )
            assert np.array_equal(total % params.modulus._qs_np, expected)


@pytest.mark.parametrize("modulus_text", ["2", "3", "257", "2*3*5", "15"])
@pytest.mark.parametrize("parties,corrupted", [(3, 1), (4, 1), (5, 2)])
def test_point_function_round_trip(parties, corrupted, modulus_text, rng):
    modulus = parse_modulus(modulus_text)
    n = 10
    params = _make(parties, corrupted, modulus_text, n)
    for alpha in (0, 3, n - 1):
        beta = modulus.element(rng.randrange(1, modulus.value))
        keys = gen(PointDescription(alpha, beta), params, rng)
        assert len(keys) == parties
        expected = [beta.lift() if x == alpha else 0 for x in range(n)]
        assert _decode_all(keys, n) == expected


def test_single_point_domain(rng):
    params = _make(3, 1, "7", 1)
    keys = gen(PointDescription(0, params.modulus.element(4)), params, rng)
    assert _decode_all(keys, 1) == [4]


def test_zero_beta_shares_zero_function(rng):
    params = _make(3, 1, "5", 6)
    keys = gen(PointDescription(2, params.modulus.zero()), params, rng)
    assert _decode_all(keys, 6) == [0] * 6


def test_eval_all_matches_pointwise(rng):
    params = _make(5, 2, "2*3*5", 40, grid=(7, 6))
    keys = gen(PointDescription(17, params.modulus.element(23)), params, rng)
    for key in keys:
        vec = eval_all(key)
        assert len(vec) == 40
        assert vec.lift_all() == [eval_point(key, x).lift() for x in range(40)]


@pytest.mark.parametrize("scheme,parties,corrupted,modulus_text,domain,grid", [
    ("ours", 3, 1, "257", 40, (7, 9)),
    ("dcf", 5, 2, "2*3*5", 40, (7, 6)),
    ("dcf", 3, 1, "2*3*5*7", 23, "auto"),
    ("boyle15", 3, 1, "5", 40, (7, 9)),
    ("boyle15", 4, 2, "3", 10, (4, 3)),
    ("trivial", 3, 1, "2*3*5", 40, "auto"),
    ("ours", 3, 1, "2*3*5*7", 40, (5, 9)),
    ("ours", 5, 2, "2147483647", 30, (4, 8)),
    ("dcf", 3, 1, "2147483647", 30, (4, 8)),
    ("boyle15", 3, 1, "7", 30, (5, 7)),
])
def test_full_domain_evaluator_matches_pointwise(
    scheme, parties, corrupted, modulus_text, domain, grid, rng
):
    gen_fn, eval_fn, eval_all_fn = {
        "ours": (gen, eval_point, eval_all),
        "dcf": (dcf_gen, dcf_eval, dcf_eval_all),
        "boyle15": (boyle_gen, eval_point, eval_all),
        "trivial": (trivial_gen, trivial_eval, trivial_eval_all),
    }[scheme]
    params = _make(parties, corrupted, modulus_text, domain, grid=grid)
    keys = gen_fn(PointDescription(domain // 2, params.modulus.element(23)), params, rng)
    for key in keys:
        vec = eval_all_fn(key)
        assert vec.lift_all() == [eval_fn(key, x).lift() for x in range(domain)]


@pytest.mark.parametrize("modulus_text", ["2147483647", "2*2147483647", "2*3*5*7"])
@pytest.mark.parametrize("seed_count", [1, 4, 5, 9, 13])
@pytest.mark.parametrize("with_correction", [False, True])
def test_combine_row_matches_per_term_reduction_at_the_largest_residues(
    monkeypatch, modulus_text, seed_count, with_correction
):
    # Every share, expanded residue and correction entry is q-1, so each
    # product is the largest there is: summing one more product than the
    # reduction period allows wraps uint64 and changes the result.
    modulus = parse_modulus(modulus_text)
    top = np.array([[q - 1] for q in modulus.factors], dtype=np.uint64)

    def largest_residues(seed, spec):
        return FieldVector._raw(modulus, np.repeat(top, spec.output_len, axis=1))

    monkeypatch.setattr(dpf, "expand", largest_residues)
    spec = PrgSpec(PRG_SHAKE128, 128, 3, modulus)
    correction = largest_residues(None, spec) if with_correction else None
    seeds = np.ones((seed_count, 16), dtype=np.uint8)
    shares = np.repeat(top, seed_count, axis=1)
    expected = []
    for q in modulus.factors:
        acc = (q - 1) * (q - 1) % q if with_correction else 0
        for _ in range(seed_count):
            acc = (acc + (q - 1) * (q - 1)) % q
        expected.append(acc)
    whole = _combine_row(seeds, shares, spec, correction)
    for first in (0, 1, 2):
        got = _combine_row(seeds, shares, spec, correction, first=first)
        assert got.tolist() == [[acc] * (3 - first) for acc in expected]
        assert got.tolist() == whole[:, first:].tolist()


@pytest.mark.parametrize("first", [0, 1, 4, 7])
def test_combine_row_columns_from_first_match_the_whole_row(rng, first):
    # Distinct columns, so a slice taken from the wrong column shows.
    params = _make(5, 2, "2*3*5*7", 64, grid=(8, 8))
    keys = gen(PointDescription(21, params.modulus.element(23)), params, rng)
    for key in keys:
        for row in (0, 2, 7):
            seeds, shares, correction = key.row(row)
            whole = _combine_row(seeds, shares, params.prg, correction)
            part = _combine_row(seeds, shares, params.prg, correction, first=first)
            assert part.tolist() == whole[:, first:].tolist()


_U64 = st.sampled_from([0, 1, 2 ** 63, 2 ** 64 - 1]) | st.integers(0, 2 ** 64 - 1)


@given(
    st.lists(st.integers(2, 2 ** 31 - 1), min_size=1, max_size=4),
    st.integers(1, 40),
    st.data(),
)
def test_reduce_matches_the_remainder_operator(factors, width, data):
    values = np.array(
        [data.draw(st.lists(_U64, min_size=width, max_size=width)) for _ in factors],
        dtype=np.uint64,
    )
    qs = np.array(factors, dtype=np.uint64)[:, None]
    expected = values % qs
    _reduce(values, qs, np.empty_like(values))
    assert values.tolist() == expected.tolist()


@pytest.mark.parametrize("domain,grid", [(40, (5, 9)), (45, (5, 9)), (30, (6, 9))])
def test_eval_rows_cover_the_domain_once_and_trim_the_last_row(rng, domain, grid):
    params = _make(3, 1, "2*3*5*7", domain, grid=grid)
    key = gen(PointDescription(domain - 1, params.modulus.element(23)), params, rng)[0]
    rows = list(eval_rows(key))
    assert [start for start, _ in rows] == list(range(0, domain, grid[1]))
    assert [shares.shape for _, shares in rows][-1] == (4, domain - rows[-1][0])
    joined = np.concatenate([shares for _, shares in rows], axis=1)
    assert joined.tolist() == eval_all(key).data.tolist()


@pytest.mark.parametrize("scheme", ["ours", "dcf"])
def test_full_domain_output_over_the_budget_is_refused(monkeypatch, rng, scheme):
    gen_fn, eval_all_fn = {"ours": (gen, eval_all), "dcf": (dcf_gen, dcf_eval_all)}[scheme]
    params = _make(3, 1, "2*3*5*7", 40, grid=(5, 9))
    key = gen_fn(PointDescription(17, params.modulus.element(23)), params, rng)[0]
    size = 8 * 4 * 40
    monkeypatch.setattr(dpf, "EVAL_BUDGET", size)
    assert len(eval_all_fn(key)) == 40
    monkeypatch.setattr(dpf, "EVAL_BUDGET", size - 1)
    with pytest.raises(GuardError, match="exceeds the budget"):
        eval_all_fn(key)


def test_eval_point_expands_only_the_prefix_it_reads(monkeypatch, rng):
    params = _make(5, 2, "2*3*5*7", 60, grid=(5, 12))
    keys = gen(PointDescription(29, params.modulus.element(23)), params, rng)
    lengths = []

    def recording_expand(seed, spec):
        lengths.append(spec.output_len)
        return dpf.prg.expand(seed, spec)

    full = eval_all(keys[0]).lift_all()
    monkeypatch.setattr(dpf, "expand", recording_expand)
    for x in (0, 29, 59):
        lengths.clear()
        assert eval_point(keys[0], x).lift() == full[x]
        assert lengths == [x % 12 + 1] * params.tuples_per_row


def test_single_share_reveals_nothing_exact(rng):
    # one key's evaluation is NOT the function (p-of-p sharing)
    params = _make(3, 1, "257", 8)
    keys = gen(PointDescription(5, params.modulus.element(99)), params, rng)
    single = eval_all(keys[0]).lift_all()
    truth = [99 if x == 5 else 0 for x in range(8)]
    assert single != truth


def test_gen_requires_honest_majority(rng):
    params = _make(4, 2, "5", 4)
    with pytest.raises(HonestMajorityError, match="m < p/2"):
        gen(PointDescription(0, params.modulus.one()), params, rng)


def test_point_description_validation(rng):
    params = _make(3, 1, "5", 4)
    with pytest.raises(ParameterError):
        gen(PointDescription(4, params.modulus.one()), params, rng)
    with pytest.raises(ParameterError):
        gen(PointDescription(-1, params.modulus.one()), params, rng)
    with pytest.raises(ParameterError):
        gen(PointDescription(0, Modulus.prime(7).one()), params, rng)


def test_eval_point_range_check(rng):
    params = _make(3, 1, "5", 4)
    keys = gen(PointDescription(0, params.modulus.one()), params, rng)
    with pytest.raises(ParameterError):
        eval_point(keys[0], 4)
    with pytest.raises(ParameterError):
        eval_point(keys[0], -1)


def test_decode_share_count_check(rng):
    m = parse_modulus("5")
    shares = [m.element(1), m.element(2)]
    assert decode(shares, expected_count=2).lift() == 3
    with pytest.raises(ParameterError):
        decode(shares, expected_count=3)
    with pytest.raises(ParameterError):
        decode([])


def test_key_structure(rng):
    params = _make(5, 2, "7", 30, grid=(5, 6))
    keys = gen(PointDescription(11, params.modulus.element(3)), params, rng)
    for key in keys:
        assert isinstance(key, DpfKey)
        assert key.seeds.shape == (5, params.tuples_per_row, params.lambda_bits // 8)
        assert key.seeds.dtype == np.uint8
        assert key.shares.shape == (1, 5, params.tuples_per_row)
        assert (key.shares < 7).all()
        assert len(key.correction) == params.cols


def test_parties_share_column_seeds(rng):
    # members of the same column subset must hold the same seed
    params = _make(4, 1, "5", 8, grid=(2, 4))
    keys = gen(PointDescription(3, params.modulus.one()), params, rng)
    combos = params.combinations
    for row in range(params.rows):
        for j, subset in enumerate(combos):
            seeds = set()
            for party in subset:
                cols = params.member_columns(party)
                seeds.add(keys[party].seeds[row, cols.index(j)].tobytes())
            assert len(seeds) == 1


def test_deterministic_generation_is_byte_stable():
    params = _make(3, 1, "2*3*5", 12)
    point = PointDescription(7, params.modulus.element(19))
    blobs = []
    for _ in range(2):
        rng = DeterministicRandomSource("stable")
        keys = gen(point, params, rng)
        blobs.append(tuple(key_to_bytes(k) for k in keys))
    assert blobs[0] == blobs[1]


def _seed_by_seed(params, rng):
    """`_distinct_seeds` as a loop over every candidate, its reference."""
    size = params.lambda_bits // 8
    want = params.rows * params.combo_count
    seen, flat = set(), []
    while len(flat) < want:
        blob = rng.randbytes(size * (want - len(flat)))
        for i in range(0, len(blob), size):
            s = blob[i : i + size]
            if any(s) and s not in seen:
                seen.add(s)
                flat.append(s)
    table = np.frombuffer(b"".join(flat), dtype=np.uint8)
    return table.reshape(params.rows, params.combo_count, size)


@pytest.mark.parametrize(
    "lambda_bits,grid", [(8, (40, 2)), (8, (80, 3)), (16, (30, 10)), (128, (181, 30))]
)
def test_distinct_seeds_match_the_seed_by_seed_loop(lambda_bits, grid):
    # At 8 bits zero and repeated seeds come up in every draw, so the seeds
    # are gathered over several reads; at 128 bits the first read suffices.
    params = _make(3, 1, "7", grid[0] * grid[1], grid=grid, lambda_bits=lambda_bits)
    for label in range(25):
        ref = DeterministicRandomSource(f"seeds/{lambda_bits}/{label}")
        got = DeterministicRandomSource(f"seeds/{lambda_bits}/{label}")
        want = _seed_by_seed(params, ref)
        assert np.array_equal(_distinct_seeds(params, got), want)
        assert got.randbytes(16) == ref.randbytes(16)  # same next read


def test_more_cells_than_distinct_seeds_is_refused():
    # 255 non-zero one-byte seeds cannot fill 258 cells; the search used
    # to loop forever.
    params = _make(3, 1, "7", 256, grid=(86, 3), lambda_bits=8)
    point = PointDescription(0, params.modulus.one())
    with pytest.raises(ParameterError, match="258 cells exceed the 255 1-byte seeds"):
        gen(point, params, DeterministicRandomSource("x"))
    fits = _make(3, 1, "7", 255, grid=(85, 3), lambda_bits=8)
    assert len(gen(point, fits, DeterministicRandomSource("x"))) == 3


def test_test_prg_round_trip(rng):
    params = _make(3, 1, "17", 9, prg_algorithm=PRG_TEST_LCG)
    keys = gen(PointDescription(4, params.modulus.element(12)), params, rng)
    assert _decode_all(keys, 9) == [12 if x == 4 else 0 for x in range(9)]


class TestChooseGrid:
    def test_auto_known_value(self):
        rows, cols = choose_grid(
            10 ** 6, 7, 3, 128, Modulus.prime(2 ** 31 - 1), "auto"
        )
        assert (rows, cols) == (99, 10102)

    def test_square(self):
        assert choose_grid(16, 3, 1, 128, Modulus.prime(5), "square") == (4, 4)
        assert choose_grid(17, 3, 1, 128, Modulus.prime(5), "square") == (5, 5)

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            choose_grid(16, 3, 1, 128, Modulus.prime(5), "hex")


def test_exhaustive_tiny_all_alpha(rng):
    # every (alpha, x) pair over a couple of tiny configurations
    for modulus_text, parties, corrupted in (("2", 3, 1), ("3", 5, 2)):
        modulus = parse_modulus(modulus_text)
        n = 6
        params = _make(parties, corrupted, modulus_text, n)
        for alpha in range(n):
            beta = modulus.element(1)
            keys = gen(PointDescription(alpha, beta), params, rng)
            assert _decode_all(keys, n) == [
                1 if x == alpha else 0 for x in range(n)
            ]
