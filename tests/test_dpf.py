"""Key generation, evaluation, and decoding of the compact point scheme."""

import itertools
from math import comb

import numpy as np
import pytest

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
    choose_grid,
    decode,
    eval_all,
    eval_point,
    gen,
)
from dpfkit.errors import HonestMajorityError, ParameterError
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
    got = _combine_row(seeds, np.repeat(top, seed_count, axis=1), spec, correction)
    expected = []
    for q in modulus.factors:
        acc = (q - 1) * (q - 1) % q if with_correction else 0
        for _ in range(seed_count):
            acc = (acc + (q - 1) * (q - 1)) % q
        expected.append([acc] * 3)
    assert got.tolist() == expected


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
