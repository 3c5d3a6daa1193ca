"""Residue arithmetic, the column layout, and grid optimization."""

import itertools
import random
import time
import tracemalloc
from functools import partial
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpfkit import algebra
from dpfkit.algebra import (
    LAYOUT_PEAK,
    FieldElement,
    FieldVector,
    Modulus,
    is_prime,
    minimize_grid,
    parse_modulus,
    primorial,
    random_residues,
)
from dpfkit.baselines import boyle_gen, trivial_gen
from dpfkit.dpf import PointDescription, SchemeParams, gen
from dpfkit.errors import GuardError, ParameterError
from dpfkit.keyfile import read_key_file, write_key_file
from dpfkit.pir import Database, read_database, write_database
from dpfkit.prg import (
    PRG_SHAKE128,
    PRG_TEST_LCG,
    DeterministicRandomSource,
    PrgSpec,
    expand,
    sample_seeds,
)
from dpfkit.sizing import _boyle_row_cost


def _random_element(modulus: Modulus, rng) -> FieldElement:
    return FieldElement(modulus, tuple(rng.randrange(q) for q in modulus.factors))


def _is_zero(e: FieldElement) -> bool:
    return all(r == 0 for r in e.residues)


def _trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_4000():
    for n in range(4000):
        assert is_prime(n) == _trial_division_prime(n), n


@pytest.mark.parametrize(
    "n,expected",
    [
        (561, False),  # Carmichael number, catches weak probabilistic tests
        (2 ** 31 - 1, True),
        (2 ** 31 + 1, False),
        (65537, True),
        (1299709 * 15485863, False),
    ],
)
def test_is_prime_spot_checks(n, expected):
    assert is_prime(n) is expected


class TestModulus:
    def test_prime_constructor(self):
        m = Modulus.prime(257)
        assert m.value == 257
        assert m.factors == (257,)
        assert m.residue_bits == 9

    def test_from_int_factors_by_trial_division(self):
        assert Modulus.from_int(210).factors == (2, 3, 5, 7)
        assert Modulus.from_int(510510).factors == (2, 3, 5, 7, 11, 13, 17)

    def test_from_int_prime_remainder_after_trial_division(self):
        assert Modulus.from_int(2 ** 31 - 1).factors == (2 ** 31 - 1,)

    def test_from_int_rejects_repeated_factor(self):
        with pytest.raises(ParameterError):
            Modulus.from_int(4)
        with pytest.raises(ParameterError):
            Modulus.from_int(2 ** 31)

    def test_from_int_rejects_unfactorable_composite(self):
        # both factors prime and above the trial-division cutoff
        with pytest.raises(ParameterError, match="q1\\*q2"):
            Modulus.from_int(1299709 * 15485863)

    def test_rejects_composite_factor(self):
        with pytest.raises(ParameterError):
            Modulus((15,))
        with pytest.raises(ParameterError):
            Modulus((561,))

    def test_rejects_factor_at_limit(self):
        with pytest.raises(ParameterError):
            Modulus.from_factors([2147483659])  # prime but >= 2**31

    def test_rejects_unsorted_or_repeated(self):
        with pytest.raises(ParameterError):
            Modulus((3, 2))
        with pytest.raises(ParameterError):
            Modulus.from_factors([3, 3])

    @pytest.mark.parametrize("factors, match", [
        ((), "at least one prime factor"), ((2, 3.0), "3.0 is not an integer"),
    ])
    def test_rejects_empty_or_non_integer_factors(self, factors, match):
        with pytest.raises(ParameterError, match=match):
            Modulus(factors)

    def test_rejects_oversized_product(self):
        with pytest.raises(ParameterError):
            Modulus.from_factors([3, 2147483629, 2147483647])

    def test_value_and_str_round_trip(self):
        m = Modulus.from_factors([7, 2, 5])
        assert m.factors == (2, 5, 7)
        assert m.value == 70
        assert str(m) == "2*5*7"
        assert parse_modulus(str(m)) == m

    def test_residue_bits_sums_per_factor(self):
        assert Modulus.from_int(210).residue_bits == 1 + 2 + 3 + 3


def test_parse_modulus_forms():
    assert parse_modulus("210").factors == (2, 3, 5, 7)
    assert parse_modulus("2*3*5*7").factors == (2, 3, 5, 7)
    assert parse_modulus(" 2 * 3 ").factors == (2, 3)
    for bad in ("", "abc", "2**3", "0", "1", "2*", "6*35"):
        with pytest.raises(ParameterError):
            parse_modulus(bad)


def test_primorial_values():
    values = [primorial(i).value for i in range(1, 8)]
    assert values == [2, 6, 30, 210, 2310, 30030, 510510]
    with pytest.raises(ParameterError):
        primorial(0)


class TestFieldElement:
    def test_reduction_and_lift(self):
        m = Modulus.from_int(210)
        e = m.element(185)
        assert e.residues == (1, 2, 0, 3)
        assert e.lift() == 185

    def test_crt_lift_reconstructs_from_residues(self):
        m = Modulus.from_int(210)
        e = FieldElement(m, (1, 2, 0, 3))
        assert e.lift() == 185

    def test_negative_values_reduce(self):
        m = Modulus.prime(13)
        assert m.element(-1).lift() == 12

    @given(st.integers(), st.integers())
    def test_ops_match_integer_arithmetic(self, a, b):
        m = Modulus.from_int(2 * 3 * 5 * 257)
        x, y = m.element(a), m.element(b)
        assert (x + y).lift() == (a + b) % m.value

    def test_is_zero(self):
        m = Modulus.from_int(6)
        assert _is_zero(m.element(0))
        assert not _is_zero(m.one())
        assert _is_zero(m.element(6))

    def test_mixed_moduli_rejected(self):
        a = Modulus.prime(5).element(1)
        b = Modulus.prime(7).element(1)
        with pytest.raises(ParameterError):
            a + b

    @pytest.mark.parametrize("build, match", [
        (lambda m: m.element(1.5), "expected an integer, got 1.5"),
        (lambda m: FieldElement(m, (1,)), "expected 2 residues, got 1"),
        (lambda m: m.one() + 1, "cannot combine FieldElement with 1"),
    ], ids=["non-integer", "residue count", "non-element"])
    def test_malformed_input_is_refused(self, build, match):
        with pytest.raises(ParameterError, match=match):
            build(Modulus.from_int(6))

    def test_random_element_in_range(self, rng):
        m = Modulus.from_int(30)
        for _ in range(50):
            e = _random_element(m, rng)
            assert 0 <= e.lift() < 30


class TestFieldVector:
    def test_construction_and_indexing(self):
        m = Modulus.from_int(15)
        v = FieldVector(m, np.array([[0, 1, 2], [0, 2, 4]]))
        assert len(v) == 3
        assert v[1].lift() == 7
        assert v.lift_all() == [0, 7, 14]

    def test_elementwise_ops_match_scalar_ops(self, rng):
        m = Modulus.from_int(2 * 3 * 257)
        a = FieldVector.random(m, 20, rng)
        b = FieldVector.random(m, 20, rng)
        assert (a + b).lift_all() == [(x + y) % m.value for x, y in zip(a.lift_all(), b.lift_all())]

    def test_residues_out_of_range_rejected(self):
        m = Modulus.prime(5)
        with pytest.raises(ParameterError):
            FieldElement(m, (5,))
        with pytest.raises(ParameterError):
            FieldVector(m, np.array([[0, 5]]))

    def test_length_mismatch_rejected(self, rng):
        m = Modulus.prime(5)
        a = FieldVector.random(m, 3, rng)
        b = FieldVector.random(m, 4, rng)
        with pytest.raises(ParameterError):
            a + b

    @pytest.mark.parametrize("build, match", [
        (lambda m: FieldVector(m, np.array([1, 2])), r"expected shape \(2, n\), got \(2,\)"),
        (lambda m: FieldVector(m, np.zeros((2, 3)))[3], "index 3 out of range"),
        (lambda m: FieldVector(m, np.zeros((2, 3)))[-1], "index -1 out of range"),
        (lambda m: FieldVector(m, np.zeros((2, 3))) + 1, "cannot combine FieldVector with 1"),
    ], ids=["1-D", "index past the end", "negative index", "non-vector"])
    def test_malformed_input_is_refused(self, build, match):
        with pytest.raises(ParameterError, match=match):
            build(Modulus.from_int(6))

    def test_equality(self, rng):
        m = Modulus.from_int(21)
        a = FieldVector.random(m, 8, rng)
        b = FieldVector(m, a.data.copy())
        assert a == b
        assert a != FieldVector(m, np.zeros((2, 8)))


class TestColumnLayout:
    # p = 60, m = 2 lays out 102,660 subset entries, past uint16 positions
    # and in groups of 3, which does not divide 2**16.  The seeds are 16
    # bytes, since the layout refuses more cells than distinct seeds.
    @pytest.mark.parametrize(
        "p, m", [(p, m) for p in range(2, 12) for m in range(1, p)] + [(60, 2)]
    )
    def test_matches_the_subset_reference(self, p, m):
        columns, slots = SchemeParams(p, m, 128, Modulus.prime(2), 1, 1, 1).layout
        subsets = np.array(list(itertools.combinations(range(p), m + 1)))
        assert columns.shape == slots.shape == (p, comb(p - 1, m))
        assert (np.diff(columns, axis=1) > 0).all()
        assert (subsets[columns, slots] == np.arange(p)[:, None]).all()
        # each column is held by exactly its subset, in party order
        holders = [[] for _ in subsets]
        for party, held in enumerate(columns.tolist()):
            for j in held:
                holders[j].append(party)
        assert holders == subsets.tolist()
        # DpfKey.row relies on this closed form instead of the layout
        assert ((columns[:, 0] == 0) == (np.arange(p) <= m)).all()


class TestMinimizeGrid:
    def _brute(self, n, row_cost, col_cost):
        best = None
        for r in range(1, n + 1):
            v = -(-n // r)
            c = r * row_cost + v * col_cost
            if best is None or c < best[2] or (c == best[2] and r < best[0]):
                best = (r, v, c)
        return best

    def test_known_optimum(self):
        row_cost = comb(6, 3) * (128 + 31)
        assert minimize_grid(10 ** 6, row_cost, 31) == (99, 10102, 627982)

    def test_tie_breaks_toward_fewer_rows(self):
        assert minimize_grid(36, comb(2, 1) * (8 + 1), 1) == (1, 36, 54)

    @given(
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=50),
    )
    def test_matches_brute_force(self, n, row_cost, col_cost):
        assert minimize_grid(n, row_cost, col_cost) == self._brute(n, row_cost, col_cost)

    def test_covers_domain(self):
        for n in (1, 2, 17, 100, 9999):
            r, v, _ = minimize_grid(n, 100, 3)
            assert r * v >= n

    def test_rejects_empty_domain(self):
        with pytest.raises(ParameterError):
            minimize_grid(0, 1, 1)

    def test_rejects_non_positive_costs(self):
        for costs in ((0, 1), (1, 0), (-3, 2)):
            with pytest.raises(ParameterError):
                minimize_grid(10, *costs)


def _full_scan(n, row_cost, col_cost):
    """Every candidate row count r or ceil(n/v) with r, v <= isqrt(n) + 1:
    the grid search before it was bounded, kept as its reference."""
    root = isqrt(n) + 1
    cands = set(range(1, root + 1))
    cands.update(-(-n // v) for v in range(1, root + 1))
    best = None
    for r in sorted(cands):
        v = -(-n // r)
        cost = r * row_cost + v * col_cost
        if best is None or cost < best[2]:
            best = (r, v, cost)
    return best


def _choose_grid_costs(parties, corrupted, lambda_bits, modulus_text):
    """(row cost, column cost) as `dpf.choose_grid` passes them."""
    bits = parse_modulus(modulus_text).residue_bits
    return comb(parties - 1, corrupted) * (lambda_bits + bits), bits


def _boyle_costs(q, parties, lambda_bits):
    """(row cost, column cost) as `sizing`'s Boyle model passes them."""
    return _boyle_row_cost(q, parties, lambda_bits), (q - 1).bit_length()


GRID_COSTS = [
    _choose_grid_costs(3, 1, 128, "2*3*5*7"),
    _choose_grid_costs(7, 3, 128, "2147483647"),
    _choose_grid_costs(5, 2, 8, "2"),
    _boyle_costs(2, 3, 128),
    _boyle_costs(5, 3, 128),
    _boyle_costs(3, 5, 64),
    (1, 1),
    (1, 1000),
]


class TestBoundedGridSearch:
    @pytest.mark.parametrize("costs", GRID_COSTS)
    def test_every_small_domain_matches_the_full_scan(self, costs):
        for n in range(1, 5001):
            assert minimize_grid(n, *costs) == _full_scan(n, *costs), n

    @pytest.mark.parametrize("costs", GRID_COSTS)
    def test_random_domains_match_the_full_scan(self, costs):
        rnd = random.Random(repr(costs))
        domains = [rnd.randrange(5001, 10 ** 9) for _ in range(12)]
        for n in domains + [10 ** 9, 10 ** 6 * (10 ** 3 + 1)]:
            assert minimize_grid(n, *costs) == _full_scan(n, *costs), n

    @given(
        st.integers(min_value=1, max_value=10 ** 7),
        st.integers(min_value=1, max_value=10 ** 6),
        st.integers(min_value=1, max_value=10 ** 4),
    )
    def test_random_costs_match_the_full_scan(self, n, row_cost, col_cost):
        assert minimize_grid(n, row_cost, col_cost) == _full_scan(n, row_cost, col_cost)

    @pytest.mark.parametrize("n", [10 ** 18, 10 ** 18 - 12345, 2 ** 63 + 12345, 2 ** 64 - 1])
    @pytest.mark.parametrize("costs", GRID_COSTS)
    def test_huge_domains_return_quickly_and_beat_their_neighbours(self, n, costs):
        start = time.perf_counter()
        rows, cols, cost = minimize_grid(n, *costs)
        assert time.perf_counter() - start < 5
        assert cols == -(-n // rows) and cost == rows * costs[0] + cols * costs[1]
        # No row count in a wide band around the optimum, or folded onto
        # one with nearby column counts, costs less or ties with fewer rows.
        near = set(range(max(1, rows - 3000), min(n, rows + 3000) + 1))
        near.update(-(-n // v) for v in range(max(1, cols - 3000), cols + 3001))
        for r in near:
            other = r * costs[0] + -(-n // r) * costs[1]
            assert other > cost or (other == cost and r >= rows), r


def _traced_peak(call) -> int:
    """tracemalloc's peak in bytes while `call()` runs and its result lives."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _expansion(seed: int, modulus_text: str, n: int, first: int = 0, algorithm=PRG_SHAKE128):
    spec = PrgSpec(algorithm, 128, n, parse_modulus(modulus_text))
    return lambda rng: expand(seed.to_bytes(16, "little"), spec, first)


def _deal(dealer, parties, corrupted, modulus_text, lambda_bits, rows, cols):
    modulus = parse_modulus(modulus_text)
    point = PointDescription(rows * cols - 1, modulus.one())
    # A fresh SchemeParams each call, so that gen's layout is built and checked again.
    return lambda rng: dealer(
        point, SchemeParams(parties, corrupted, lambda_bits, modulus, rows * cols, rows, cols), rng
    )


def _sized_calls():
    """(name, call taking an rng) for each sized operation that EVAL_BUDGET bounds."""
    for text in ("2*3*5*7", "5", "2147483647", "3*65537"):
        m = parse_modulus(text)
        for n in (10 ** 4, 4 * 10 ** 4):
            yield f"random_residues-{text}-{n}", partial(random_residues, m, n)
            yield f"FieldVector.random-{text}-{n}", partial(FieldVector.random, m, n)
            yield f"expand-{text}-{n}", _expansion(7, text, n)
            yield f"expand-lcg-{text}-{n}", _expansion(7, text, n, algorithm=PRG_TEST_LCG)
    # Under these seeds one factor's first prefix of words holds fewer than
    # 10**4 passes, so expand squeezes it again at twice the length; a point
    # query (first = n - 1) still squeezes the whole prefix.
    for text, seed in (("5", 1686), ("3*65537", 89)):
        yield f"expand-retried-{text}", _expansion(seed, text, 10 ** 4)
        yield f"expand-retried-last-{text}", _expansion(seed, text, 10 ** 4, 10 ** 4 - 1)
    # 43700 and 10930 seeds lie just past a resize of sample_seeds' dict.
    for bits, count in ((128, 43700), (1024, 43700), (8192, 10930)):
        yield f"sample_seeds-{bits}-{count}", partial(sample_seeds, count, bits)
    for dealer, *deal in (
        (gen, 3, 1, "7", 128, 5000, 2),
        (gen, 3, 1, "2*3*5*7", 16, 5000, 2),
        (gen, 7, 3, "3*65537", 16, 150, 2),
        (gen, 5, 2, "2147483647", 1024, 1000, 2),
        (gen, 3, 1, "5", 8192, 2000, 2),
        (gen, 3, 1, "2147483647", 128, 100, 20000),
        (boyle_gen, 3, 1, "2", 128, 2000, 1),
        (boyle_gen, 5, 1, "7", 128, 3, 1),
        (boyle_gen, 9, 1, "3", 320, 2, 1),
        (boyle_gen, 3, 1, "5", 1024, 500, 1),
        (trivial_gen, 3, 1, "2147483647", 128, 10 ** 5, 1),
        (trivial_gen, 5, 1, "2*3*5*7", 128, 10 ** 5, 1),
    ):
        yield f"{dealer.__name__}-" + "-".join(map(str, deal)), _deal(dealer, *deal)

_SIZED_CALLS = dict(_sized_calls())


@pytest.mark.parametrize("name", list(_SIZED_CALLS))
def test_every_charge_covers_its_measured_peak(monkeypatch, refusing_rng, name):
    # Each operation's charge is at least its tracemalloc peak: with the
    # budget one byte below that peak, it is refused before any read.
    call = _SIZED_CALLS[name]
    peak = _traced_peak(lambda: call(DeterministicRandomSource(name)))
    monkeypatch.setattr(algebra, "EVAL_BUDGET", peak - 1)
    with pytest.raises(GuardError):
        call(refusing_rng)


@pytest.mark.parametrize(
    "dealer, parties, corrupted, modulus_text, domain",
    [
        (trivial_gen, 3, 1, "7", 10 ** 5),
        (trivial_gen, 3, 1, "2*3*5*7", 10 ** 5),
        (gen, 3, 1, "2*3*5*7", 10 ** 6),
        (gen, 7, 3, "2147483647", 2 ** 18),
    ],
)
def test_key_body_charge_covers_its_measured_peak(
    tmp_path, monkeypatch, dealer, parties, corrupted, modulus_text, domain
):
    # A key file's body is charged before it is read: with the budget one
    # byte below read_key_file's peak, the file is refused.
    params = SchemeParams.create(parties, corrupted, parse_modulus(modulus_text), domain)
    point = PointDescription(domain - 1, params.modulus.one())
    path = tmp_path / "key"
    write_key_file(path, dealer(point, params, DeterministicRandomSource("body"))[0])
    peak = _traced_peak(lambda: read_key_file(path))
    monkeypatch.setattr(algebra, "EVAL_BUDGET", peak - 1)
    with pytest.raises(GuardError, match="refusing a key body"):
        read_key_file(path)


@pytest.mark.parametrize("modulus_text", ["7", "2147483647"])
def test_database_charge_covers_its_measured_peak(tmp_path, monkeypatch, modulus_text):
    modulus = parse_modulus(modulus_text)
    path = tmp_path / "db"
    entries = FieldVector.random(modulus, 10 ** 5, DeterministicRandomSource("db"))
    write_database(path, Database(modulus, entries))
    peak = _traced_peak(lambda: read_database(path, modulus))
    monkeypatch.setattr(algebra, "EVAL_BUDGET", peak - 1)
    with pytest.raises(GuardError, match="refusing a database"):
        read_database(path, modulus)


@pytest.mark.parametrize("parties", [61, 201])
def test_layout_charge_covers_its_measured_peak(parties):
    # Its cells dwarf the layout in a deal's charge, so the layout is held alone.
    params = SchemeParams(parties, 2, 128, Modulus.prime(2), 1, 1, 1)
    assert _traced_peak(lambda: params.layout) <= LAYOUT_PEAK * params.combo_count * 3
