"""Full-enumeration and truth-table reference schemes."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dpfkit.algebra import Modulus, parse_modulus
from dpfkit.baselines import (
    BoyleKey,
    TrivialKey,
    boyle_column_count,
    boyle_gen,
    boyle_held_count,
    check_guard,
    require_prime,
    shuffle,
    trivial_gen,
)
from dpfkit.dpf import DpfKey, PointDescription, SchemeParams, decode, eval_point
from dpfkit.errors import GuardError, ParameterError
from dpfkit.keyfile import key_to_bytes
from dpfkit.prg import DeterministicRandomSource


def _params(parties, corrupted, modulus_text, domain, **kw):
    return SchemeParams.create(
        parties=parties,
        corrupted=corrupted,
        modulus=parse_modulus(modulus_text),
        domain_size=domain,
        **kw,
    )


def _decode_all(keys, eval_fn, n):
    return [decode([eval_fn(k, x) for k in keys]).lift() for x in range(n)]


def reconstruct_share_vectors(keys, row):
    """Rebuild the row's full column -> share-vector map from sparse keys.

    Columns absent from every key are the all-zero vector.
    """
    params = keys[0].params
    count = boyle_column_count(params)
    vectors = np.zeros((count, params.parties), dtype=np.int64)
    for key in keys:
        vectors[key.columns[row], key.party] = key.shares[0, row]
    return [tuple(v) for v in vectors.tolist()]


class TestBoyle:
    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("parties", [2, 3])
    def test_round_trip(self, q, parties, rng):
        n = 12
        params = _params(parties, 1, str(q), n)
        for alpha in (0, 5, n - 1):
            beta = params.modulus.element(rng.randrange(1, q))
            keys = boyle_gen(PointDescription(alpha, beta), params, rng)
            expected = [beta.lift() if x == alpha else 0 for x in range(n)]
            assert _decode_all(keys, eval_point, n) == expected

    def test_dishonest_majority_allowed(self, rng):
        params = _params(3, 2, "3", 6)
        keys = boyle_gen(PointDescription(2, params.modulus.one()), params, rng)
        assert _decode_all(keys, eval_point, 6) == [0, 0, 1, 0, 0, 0]

    def test_columns_enumerate_every_share_vector(self, rng):
        # per row, reassembled columns must be exactly the q^(p-1)
        # vectors summing to that row's coefficient, each exactly once
        q, parties = 3, 3
        params = _params(parties, 1, str(q), 4, grid=(2, 2))
        alpha = 3  # row 1, column 1
        keys = boyle_gen(PointDescription(alpha, params.modulus.one()), params, rng)
        for row in range(2):
            total = 1 if row == 1 else 0
            vectors = reconstruct_share_vectors(keys, row)
            assert len(vectors) == q ** (parties - 1)
            expected = sorted(
                (((total - a - b) % q, a, b) for a in range(q) for b in range(q))
            )
            assert sorted(vectors) == expected

    @pytest.mark.parametrize("q, parties", [(5, 2), (3, 3), (2, 4)])
    def test_columns_follow_the_reference_layout(self, q, parties):
        # the target row's layout is the product-order enumeration, shuffled
        # by the rng's first draws
        params = _params(parties, 1, str(q), 4, grid=(1, 4))
        point = PointDescription(1, params.modulus.one())
        keys = boyle_gen(point, params, DeterministicRandomSource("layout"))
        tails = itertools.product(range(q), repeat=parties - 1)
        expected = [((1 - sum(t)) % q,) + t for t in tails]
        shuffle(expected, DeterministicRandomSource("layout"))
        assert reconstruct_share_vectors(keys, 0) == expected

    @pytest.mark.parametrize("q, parties, held", [
        (2, 2, 1), (2, 3, 2), (3, 3, 6), (5, 3, 20), (2, 5, 8), (3, 4, 18),
    ])
    def test_key_stores_only_nonzero_shares(self, q, parties, held, rng):
        # Every row, the target row included, holds q^(p-2)(q-1) tuples.
        params = _params(parties, 1, str(q), 4, grid=(2, 2))
        keys = boyle_gen(PointDescription(1, params.modulus.one()), params, rng)
        assert boyle_held_count(params) == held
        for key in keys:
            assert key.columns.shape == (2, held)
            assert key.seeds.shape == (2, held, 16)
            assert key.shares.shape == (1, 2, held)
            for columns in key.columns.tolist():
                assert columns == sorted(set(columns))
            assert key.shares.all()

    def test_dealt_key_is_a_dpf_key(self, rng):
        params = _params(3, 1, "3", 4, grid=(1, 4))
        for key in boyle_gen(PointDescription(1, params.modulus.one()), params, rng):
            assert isinstance(key, DpfKey)
            assert key.held_count(params) == boyle_held_count(params) == 6

    def test_key_with_another_tuple_count_is_refused(self, rng):
        # Every row holds T = 6 tuples here.  A key of 5 would be written by
        # key_to_bytes as a file that key_from_bytes refuses.
        params = _params(3, 1, "3", 4, grid=(1, 4))
        key = boyle_gen(PointDescription(1, params.modulus.one()), params, rng)[0]
        cut = dict(columns=key.columns[:, :5], seeds=key.seeds[:, :5], shares=key.shares[:, :, :5])
        with pytest.raises(ParameterError, match="seeds must have shape"):
            replace(key, **cut)
        with pytest.raises(ParameterError, match="column indexes"):
            replace(key, columns=key.columns[:, :5])

    @pytest.mark.parametrize("edit", ["swap", "repeat", "out of range"])
    def test_key_with_bad_columns_is_refused(self, rng, edit):
        params = _params(3, 1, "3", 4, grid=(2, 2))
        key = boyle_gen(PointDescription(1, params.modulus.one()), params, rng)[0]
        columns = key.columns.copy()
        if edit == "swap":
            columns[1, [0, 1]] = columns[1, [1, 0]]
        elif edit == "repeat":
            columns[1, 1] = columns[1, 0]
        else:
            columns[1, -1] = boyle_column_count(params)
        with pytest.raises(ParameterError, match="column indexes"):
            replace(key, columns=columns)
        replace(key, columns=key.columns.copy())  # the dealt columns pass

    def test_column_count(self):
        params = _params(3, 1, "5", 4)
        assert boyle_column_count(params) == 25

    def test_guard_rejects_blowup(self, rng):
        params = _params(7, 3, "257", 16)
        with pytest.raises(GuardError, match="exponential"):
            boyle_gen(PointDescription(0, params.modulus.one()), params, rng)

    def test_guard_boundary(self):
        assert check_guard(2, 21) == 1 << 20  # 2^20 columns: exactly at the limit
        with pytest.raises(GuardError):
            check_guard(2, 22)

    def test_guard_stops_multiplying_past_the_limit(self):
        # A key header can declare p = 65535; q^(p-1) must not be computed.
        class CountedFactor(int):
            products = 0

            def __rmul__(self, other):
                CountedFactor.products += 1
                return other * int(self)

        with pytest.raises(GuardError):
            check_guard(CountedFactor(2 ** 31 - 1), 65535)
        assert CountedFactor.products == 1

    @pytest.mark.parametrize("factors, parties, error, match", [
        ((2, 3), 3, ParameterError, "per factor"),
        ((2 ** 31 - 1,), 65535, GuardError, "exponential"),
    ])
    def test_hand_built_key_is_refused_when_built(self, factors, parties, error, match):
        # Refused before q^(p-1), a two-million-bit integer at p = 65535, is taken.
        params = SchemeParams(parties, 1, 128, Modulus(factors), 1, 1, 1)
        f = len(factors)  # one row of one held column
        fields = dict(
            party=0, params=params, seeds=np.ones((1, 1, 16), dtype=np.uint8),
            shares=np.ones((f, 1, 1), dtype=np.uint64), correction=np.zeros((f, 1), dtype=np.uint64),
            columns=np.ones((1, 1), dtype=np.uint32),
        )
        tracemalloc.start()
        try:
            with pytest.raises(error, match=match):
                BoyleKey(**fields)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_composite_modulus_rejected(self, rng):
        params = _params(3, 1, "2*3", 4)
        with pytest.raises(ParameterError, match="per factor"):
            boyle_gen(PointDescription(0, params.modulus.one()), params, rng)
        require_prime(Modulus.prime(7))

    def test_deterministic(self):
        params = _params(3, 1, "3", 6)
        point = PointDescription(4, params.modulus.element(2))
        a = boyle_gen(point, params, DeterministicRandomSource("b"))
        b = boyle_gen(point, params, DeterministicRandomSource("b"))
        assert [key_to_bytes(x) for x in a] == [key_to_bytes(y) for y in b]

    def test_columns_are_shuffled_per_row(self, rng):
        # rows sharing a coefficient must not lay their vectors out in
        # the same order, or the layout would leak the target row
        params = _params(3, 2, "5", 125, grid=(5, 25))
        keys = boyle_gen(PointDescription(124, params.modulus.one()), params, rng)
        orders = [tuple(reconstruct_share_vectors(keys, row)) for row in range(4)]
        assert len(set(orders)) > 1


def test_shuffle_reads_the_stream_as_random_shuffle():
    # A DeterministicRandomSource's getrandbits(k) is the top k bits of
    # randbytes(ceil(k/8)), so CPython's shuffle must draw what the dealer's
    # own walk draws, and leave the stream at the same byte.
    cases = [(seed, count) for seed in range(300) for count in (1, 2, 3, 5, 8, 9, 17)]
    cases += [(f"long-{count}", count) for count in (*range(1, 1001, 7), 256, 257, 1000)]
    for seed, count in cases:
        ours, theirs = DeterministicRandomSource(seed), DeterministicRandomSource(seed)
        items, expected = list(range(count)), list(range(count))
        shuffle(items, ours)
        theirs.shuffle(expected)
        assert items == expected, (seed, count)
        assert ours.randbytes(16) == theirs.randbytes(16), (seed, count)


class TestTrivial:
    @pytest.mark.parametrize("modulus_text", ["2", "257", "2*3*5"])
    def test_round_trip(self, modulus_text, rng):
        n = 9
        params = _params(3, 1, modulus_text, n)
        beta = params.modulus.element(rng.randrange(1, params.modulus.value))
        keys = trivial_gen(PointDescription(4, beta), params, rng)
        expected = [beta.lift() if x == 4 else 0 for x in range(n)]
        assert _decode_all(keys, eval_point, n) == expected

    def test_table_length_is_domain(self, rng):
        params = _params(4, 1, "5", 7)
        keys = trivial_gen(PointDescription(0, params.modulus.one()), params, rng)
        for key in keys:
            assert key.table.shape == (1, 7)

    @pytest.mark.parametrize("length", [6, 8])
    def test_table_of_another_length_is_refused(self, rng, length):
        # Evaluation slices the table row by row, so a short table would
        # otherwise read as zeros past its end.
        params = _params(3, 1, "5", 7)
        key = trivial_gen(PointDescription(0, params.modulus.one()), params, rng)[0]
        table = np.resize(key.table, (1, length))
        with pytest.raises(ParameterError, match="table must have shape"):
            TrivialKey(key.party, params, table)

    @pytest.mark.parametrize("party", [-1, 3])
    def test_party_out_of_range_is_refused(self, rng, party):
        # Such a key would encode to a header that `parse_header` refuses.
        params = _params(3, 1, "5", 7)
        key = trivial_gen(PointDescription(0, params.modulus.one()), params, rng)[0]
        with pytest.raises(ParameterError, match=f"party {party} out of range"):
            replace(key, party=party)

    def test_single_table_is_not_the_function(self, rng):
        params = _params(3, 1, "257", 16)
        keys = trivial_gen(PointDescription(3, params.modulus.element(200)), params, rng)
        truth = [200 if x == 3 else 0 for x in range(16)]
        assert keys[0].table[0].tolist() != truth

    def test_range_check(self, rng):
        params = _params(3, 1, "5", 4)
        keys = trivial_gen(PointDescription(0, params.modulus.one()), params, rng)
        with pytest.raises(ParameterError):
            eval_point(keys[0], 4)
