"""Key generation, evaluation, and decoding of the compact point scheme."""

import itertools
import random
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpfkit import algebra, dpf
from dpfkit.algebra import WORD_BYTES, FieldVector, Modulus, check_budget, parse_modulus
from dpfkit.baselines import COLUMN_GUARD, boyle_gen, trivial_gen
from dpfkit.dcf import dcf_gen
from dpfkit.dpf import (
    GRID_SQUARE,
    DpfKey,
    PointDescription,
    SchemeParams,
    _combine_row,
    _deal,
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
from dpfkit.sizing import choose_grid_boyle


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
        for domain in (0, 2 ** 64):
            with pytest.raises(ParameterError, match=f"domain size {domain} out of range"):
                SchemeParams(3, 1, 128, parse_modulus("5"), domain, 1, 1)

    def test_dishonest_majority_params_constructible(self):
        # the type allows m >= p/2 so reference schemes can use it;
        # gen() is where the bound is enforced
        params = _make(4, 2, "5", 4)
        assert not params.honest_majority

    def test_used_rows_partial_last_row(self):
        params = _make(3, 1, "5", 10, grid=(5, 4))
        assert params.used_rows() == 3


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
        columns = params.layout[0].tolist()
        for j, subset in enumerate(itertools.combinations(range(5), 3)):
            holders = [k for k in keys if j in columns[k.party]]
            assert tuple(k.party for k in holders) == subset
            total = sum(k.shares[:, :, columns[k.party].index(j)] for k in holders)
            assert np.array_equal(total % params.modulus._qs_np, expected)


WIDE_MODULI = ["2*3*5*7", "2147483647", "65521*65537*2147483647"]


def _remainder_correction(total, count, point, params, prefix):
    """Reference: `_correction` as the uint64 `%` formula it replaced."""
    qs = params.modulus._qs_np
    target_col = point.alpha % params.cols
    target = np.zeros((len(qs), params.cols), dtype=np.uint64)
    first = 0 if prefix else target_col
    target[:, first : target_col + 1] = np.array(point.beta.residues)[:, None]
    target += count * qs
    return (target - total) % qs


@pytest.mark.parametrize("modulus_text", WIDE_MODULI)
@pytest.mark.parametrize("count", [3, COLUMN_GUARD, 1 << 32])
@pytest.mark.parametrize("prefix", [False, True])
@pytest.mark.parametrize("col", [0, 6])
@pytest.mark.parametrize("total_kind", ["largest", "zero", "random"])
def test_correction_matches_the_remainder_formula(modulus_text, count, prefix, col, total_kind):
    params = _make(3, 1, modulus_text, 14, grid=(2, 7))
    qs = params.modulus._qs_np
    beta = params.modulus.element(params.modulus.value - 1)  # q_i - 1 in every factor
    point = PointDescription(7 + col, beta)
    total = {
        "largest": np.broadcast_to(count * (qs - 1), (len(qs), 7)),
        "zero": np.zeros((len(qs), 7), dtype=np.uint64),
        "random": np.random.default_rng(count).integers(0, count * (qs - 1), size=(len(qs), 7),
                                                        dtype=np.uint64, endpoint=True),
    }[total_kind]
    got = dpf._correction(total, count, point, params, prefix)
    assert got.data.tolist() == _remainder_correction(total, count, point, params, prefix).tolist()


def _summed_deal(secrets, count, modulus, rng):
    """Reference: `_deal` with the `sum(axis=2)` passes it replaced."""
    qs = modulus._qs_np
    n = secrets.shape[1]
    drawn = dpf.random_residues(modulus, n * (count - 1), rng)
    drawn = drawn.reshape(len(modulus.factors), n, count - 1)
    last = (secrets + (count - 1) * qs - drawn.sum(axis=2)) % qs
    shares = np.concatenate([drawn, last[:, :, None]], axis=2)
    assert (shares.sum(axis=2) % qs == secrets).all()
    return shares


@pytest.mark.parametrize("modulus_text", WIDE_MODULI)
@pytest.mark.parametrize("count", [2, 3, 300])
@pytest.mark.parametrize("draws", ["stream", "largest", "zero"])
def test_deal_matches_the_summed_formula(monkeypatch, modulus_text, count, draws):
    modulus = parse_modulus(modulus_text)
    qs = modulus._qs_np
    if draws != "stream":
        value = qs - 1 if draws == "largest" else qs * 0
        monkeypatch.setattr(
            dpf, "random_residues", lambda m, k, rng: np.repeat(value, k, axis=1)
        )
    secrets = np.concatenate([qs - 1, qs * 0, qs - 1, qs // 2], axis=1)
    label = f"deal/{modulus_text}/{count}"
    got = _deal(secrets, count, modulus, DeterministicRandomSource(label))
    want = _summed_deal(secrets, count, modulus, DeterministicRandomSource(label))
    assert got.shape == (len(qs), 4, count) and got.tolist() == want.tolist()


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
    keys = gen(PointDescription(2, params.modulus.element(0)), params, rng)
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
        "dcf": (dcf_gen, eval_point, eval_all),
        "boyle15": (boyle_gen, eval_point, eval_all),
        "trivial": (trivial_gen, eval_point, eval_all),
    }[scheme]
    params = _make(parties, corrupted, modulus_text, domain, grid=grid)
    keys = gen_fn(PointDescription(domain // 2, params.modulus.element(23)), params, rng)
    for key in keys:
        vec = eval_all_fn(key)
        assert vec.lift_all() == [eval_fn(key, x).lift() for x in range(domain)]


@pytest.mark.parametrize("scheme", ["ours", "dcf", "trivial"])
@pytest.mark.parametrize("modulus_text", ["2*3*5*7", "131"])
@pytest.mark.parametrize("grid", [(3, 4099), (2, 5525)])
def test_point_evaluation_matches_rows_of_thousands_of_columns(scheme, modulus_text, grid, rng):
    # Wide rows put the column read far past the first word of each seed's
    # stream, so eval_point counts passes instead of gathering them; 131
    # accepts just over half of its one-byte words.  The last row is partial.
    gen_fn = {"ours": gen, "dcf": dcf_gen, "trivial": trivial_gen}[scheme]
    params = _make(3, 1, modulus_text, 10_000, grid=grid)
    cols = params.cols
    assert cols >= 1000 and params.domain_size % cols
    keys = gen_fn(PointDescription(cols + 7, params.modulus.element(23)), params, rng)
    last = params.domain_size - 1
    picks = random.Random(cols).sample(range(params.domain_size), 20)
    xs = sorted({0, 1, cols - 1, cols, cols + 7, last - last % cols, last, *picks})
    for key in keys:
        full = eval_all(key).lift_all()
        assert [eval_point(key, x).lift() for x in xs] == [full[x] for x in xs]


@pytest.mark.parametrize("modulus_text", ["2147483647", "2*2147483647", "2*3*5*7"])
@pytest.mark.parametrize("seed_count", [1, 4, 5, 9, 13])
@pytest.mark.parametrize("with_correction", [False, True])
@pytest.mark.parametrize("with_offset", [False, True])
def test_combine_row_matches_per_term_reduction_at_the_largest_residues(
    monkeypatch, modulus_text, seed_count, with_correction, with_offset
):
    # Every share, expanded residue, correction and offset entry is q-1, so
    # each product is the largest there is: summing one more product than
    # the reduction period allows wraps uint64 and changes the result.  The
    # offset takes the place of the reduced value the period leaves room for.
    modulus = parse_modulus(modulus_text)
    top = np.array([[q - 1] for q in modulus.factors], dtype=np.uint64)

    def largest_residues(seed, spec, first=0):
        return FieldVector._raw(modulus, np.repeat(top, spec.output_len - first, axis=1))

    monkeypatch.setattr(dpf, "expand", largest_residues)
    spec = PrgSpec(PRG_SHAKE128, 128, 3, modulus)
    correction = largest_residues(None, spec).data if with_correction else None
    offset = largest_residues(None, spec).data if with_offset else None
    seeds = np.ones((seed_count, 16), dtype=np.uint8)
    shares = np.repeat(top, seed_count, axis=1)
    expected = []
    for q in modulus.factors:
        acc = (q - 1) * (q - 1) % q if with_correction else 0
        acc = (acc + q - 1) % q if with_offset else acc
        for _ in range(seed_count):
            acc = (acc + (q - 1) * (q - 1)) % q
        expected.append(acc)
    whole = _combine_row(spec, seeds, shares, correction, offset)
    for first in (0, 1, 2):
        got = _combine_row(spec, seeds, shares, correction, offset, first=first)
        assert got.tolist() == [[acc] * (3 - first) for acc in expected]
        assert got.tolist() == whole[:, first:].tolist()


@pytest.mark.parametrize("first", [0, 1, 4, 7])
def test_combine_row_columns_from_first_match_the_whole_row(rng, first):
    # Distinct columns, so a slice taken from the wrong column shows.
    params = _make(5, 2, "2*3*5*7", 64, grid=(8, 8))
    keys = gen(PointDescription(21, params.modulus.element(23)), params, rng)
    for key in keys:
        for row in (0, 2, 7):
            whole = _combine_row(params.prg, *key.row(row))
            part = _combine_row(params.prg, *key.row(row), first=first)
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


@pytest.mark.parametrize("scheme", ["ours", "dcf", "boyle15", "trivial"])
def test_rows_are_combined_only_up_to_the_domain(monkeypatch, rng, scheme):
    # A header may declare far more columns than the domain has points; a
    # trivial key's table then covers only the first few.  No row may be
    # combined past the domain's end.
    gen_fn = {"ours": gen, "dcf": dcf_gen, "boyle15": boyle_gen, "trivial": trivial_gen}[scheme]
    params = _make(3, 1, "5", 3, grid=(1, 4096))
    lengths = []

    def recording_combine(spec, *args, **kwargs):
        lengths.append(spec.output_len)
        return _combine_row(spec, *args, **kwargs)

    monkeypatch.setattr(dpf, "_combine_row", recording_combine)
    for key in gen_fn(PointDescription(1, params.modulus.element(4)), params, rng):
        lengths.clear()
        rows = list(eval_rows(key))
        assert lengths == [3]
        assert [shares.shape for _, shares in rows] == [(1, 3)]
        assert eval_all(key).lift_all() == [eval_point(key, x).lift() for x in range(3)]


@pytest.mark.parametrize("scheme", ["ours", "dcf"])
def test_full_domain_output_over_the_budget_is_refused(monkeypatch, rng, scheme):
    gen_fn, eval_all_fn = {"ours": (gen, eval_all), "dcf": (dcf_gen, eval_all)}[scheme]
    # Four columns, so that a row's expansions (4 * 4 * 40 bytes) fit the budget too.
    params = _make(3, 1, "2*3*5*7", 40, grid=(10, 4))
    key = gen_fn(PointDescription(17, params.modulus.element(23)), params, rng)[0]
    size = 8 * 4 * 40
    monkeypatch.setattr(algebra, "EVAL_BUDGET", size)
    assert len(eval_all_fn(key)) == 40
    monkeypatch.setattr(algebra, "EVAL_BUDGET", size - 1)
    with pytest.raises(GuardError, match="exceeds the budget"):
        eval_all_fn(key)


# On the auto grid at N = 10**6, one key's row of C(p-1, m) held seeds (for
# boyle15, q^(p-2)(q-1)) expanded to V columns first exceeds EVAL_BUDGET
# at these parameters, so evaluation would refuse every key dealt for them.
ROWS_OVER_THE_BUDGET = [
    (gen, 16, 6, "2147483647"),
    (gen, 16, 7, "2147483647"),
    (gen, 14, 5, "2*3*5*7"),
    (gen, 14, 6, "2*3*5*7"),
    (dcf_gen, 16, 6, "2147483647"),
    (dcf_gen, 14, 5, "2*3*5*7"),
    (boyle_gen, 5, 1, "7"),
    (boyle_gen, 6, 1, "5"),
    (boyle_gen, 9, 1, "3"),
    (boyle_gen, 13, 1, "2"),
    # C(65534, 32767) held seeds has 19,726 digits, past Python's 4300-digit
    # limit on int-to-str conversion, so the refusal must not print it.
    (gen, 65535, 32767, "7"),
    (dcf_gen, 65535, 32767, "7"),
]


@pytest.mark.parametrize("dealer, parties, corrupted, modulus_text", ROWS_OVER_THE_BUDGET)
def test_dealer_refuses_rows_that_evaluation_refuses(
    refusing_rng, dealer, parties, corrupted, modulus_text
):
    modulus = parse_modulus(modulus_text)
    if dealer is boyle_gen:
        grid = choose_grid_boyle(10 ** 6, parties, 128, modulus)
    else:
        grid = choose_grid(10 ** 6, parties, corrupted, 128, modulus)
    params = SchemeParams.create(parties, corrupted, modulus, 10 ** 6, grid=grid)
    with pytest.raises(GuardError, match="refusing a row"):
        dealer(PointDescription(0, modulus.one()), params, refusing_rng)


@pytest.mark.parametrize("dealer", [gen, dcf_gen])
def test_dealer_refuses_its_own_row_and_tables_past_the_budget(refusing_rng, dealer):
    # At N = 100 over 7 with p = 65535 and m = 1, a key's row holds 65534
    # seeds, within the budget, but the dealer's target row holds all
    # C(65535, 2) = 2,147,385,345: it used to draw them all.
    modulus = Modulus.prime(7)
    point = PointDescription(0, modulus.one())
    params = SchemeParams.create(65535, 1, modulus, 100)
    check_budget(params.tuples_per_row * params.cols, WORD_BYTES, "a key's row")
    with pytest.raises(GuardError, match="refusing a row"):
        dealer(point, params, refusing_rng)
    # A 3-column row is small, but each cell is charged sample_seeds' peak,
    # 3 * 16 + 192 bytes, above its shares' 3 * (16 + 24); with the layout's
    # 3 * 2 * 19 bytes and the target row's 48, 5965232 rows fit the budget,
    # and one more does not.
    with pytest.raises(GuardError, match="refusing to deal tables"):
        dealer(point, SchemeParams(3, 1, 128, modulus, 5965233, 5965233, 1), refusing_rng)
    with pytest.raises(AssertionError, match="random bytes"):
        dealer(point, SchemeParams(3, 1, 128, modulus, 5965232, 5965232, 1), refusing_rng)
    # At p = 26, m = 12 one row's C(26, 13) cells are charged 5.82 GB, and
    # the layout's 135,207,800 entries 2.57 GB more.
    with pytest.raises(GuardError, match="refusing to deal tables"):
        dealer(point, SchemeParams(26, 12, 128, modulus, 50, 1, 50), refusing_rng)


def test_key_shape_refusal_does_not_print_the_seed_count():
    # T = C(65534, 32767); formatting it would raise ValueError instead.
    params = SchemeParams(65535, 32767, 128, Modulus.prime(7), 1, 1, 1)
    seeds, vector = np.ones((1, 1, 16), dtype=np.uint8), np.ones((1, 1), dtype=np.uint64)
    with pytest.raises(ParameterError, match="seeds must have shape"):
        DpfKey(0, params, seeds, vector[:, None], vector)


def test_eval_point_expands_only_the_prefix_it_reads(monkeypatch, rng):
    params = _make(5, 2, "2*3*5*7", 60, grid=(5, 12))
    keys = gen(PointDescription(29, params.modulus.element(23)), params, rng)
    lengths = []

    def recording_expand(seed, spec, first=0):
        lengths.append((spec.output_len, first))
        return dpf.prg.expand(seed, spec, first)

    full = eval_all(keys[0]).lift_all()
    monkeypatch.setattr(dpf, "expand", recording_expand)
    for x in (0, 29, 59):
        lengths.clear()
        assert eval_point(keys[0], x).lift() == full[x]
        assert lengths == [(x % 12 + 1, x % 12)] * params.tuples_per_row


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
        assert key.correction.shape == (1, params.cols)


KEY_VECTORS = [(gen, "correction"), (dcf_gen, "correction"), (dcf_gen, "row_outputs"),
               (trivial_gen, "table")]


@pytest.mark.parametrize("dealer, field", KEY_VECTORS + [(boyle_gen, "correction")])
def test_key_vector_cut_by_a_column_is_refused(rng, dealer, field):
    params = _make(3, 1, "3", 12, grid=(3, 4))
    key = dealer(PointDescription(5, params.modulus.one()), params, rng)[0]
    with pytest.raises(ParameterError, match="must have shape"):
        replace(key, **{field: getattr(key, field)[:, :-1]})


@pytest.mark.parametrize("dealer, field", KEY_VECTORS)
def test_key_vector_of_another_factor_count_is_refused(rng, dealer, field):
    # A key over 2*3*5*7 whose vector holds only the residues mod 2: such a
    # vector over another modulus evaluated to wrong shares, and encoded to a
    # file that the decoder refused.
    params = _make(3, 1, "2*3*5*7", 100)
    key = dealer(PointDescription(5, params.modulus.one()), params, rng)[0]
    with pytest.raises(ParameterError, match="must have shape"):
        replace(key, **{field: getattr(key, field)[:1]})


@pytest.mark.parametrize("dealer", [gen, dcf_gen, boyle_gen])
def test_key_with_bad_party_or_shares_is_refused(rng, dealer):
    params = _make(3, 1, "3", 12, grid=(3, 4))
    key = dealer(PointDescription(5, params.modulus.one()), params, rng)[0]
    for party in (-1, 3):
        with pytest.raises(ParameterError, match=f"party {party} out of range"):
            replace(key, party=party)
    with pytest.raises(ParameterError, match="shares must have shape"):
        replace(key, shares=key.shares[:, :, :-1])


def test_parties_share_column_seeds(rng):
    # members of the same column subset must hold the same seed
    params = _make(4, 1, "5", 8, grid=(2, 4))
    keys = gen(PointDescription(3, params.modulus.one()), params, rng)
    columns = params.layout[0].tolist()
    for row in range(params.rows):
        for j, subset in enumerate(itertools.combinations(range(4), 2)):
            seeds = set()
            for party in subset:
                seeds.add(keys[party].seeds[row, columns[party].index(j)].tobytes())
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
