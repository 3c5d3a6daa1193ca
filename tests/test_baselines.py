"""Full-enumeration and truth-table reference schemes."""

import itertools
from collections import Counter

import pytest

from dpfkit.algebra import Modulus, parse_modulus
from dpfkit.baselines import (
    COLUMN_GUARD,
    boyle_column_count,
    boyle_eval,
    boyle_gen,
    check_guard,
    require_prime,
    reconstruct_share_vectors,
    trivial_eval,
    trivial_gen,
)
from dpfkit.dpf import PointDescription, SchemeParams, decode
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
            assert _decode_all(keys, boyle_eval, n) == expected

    def test_dishonest_majority_allowed(self, rng):
        params = _params(3, 2, "3", 6)
        keys = boyle_gen(PointDescription(2, params.modulus.one()), params, rng)
        assert _decode_all(keys, boyle_eval, 6) == [0, 0, 1, 0, 0, 0]

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
        DeterministicRandomSource("layout").shuffle(expected)
        assert reconstruct_share_vectors(keys, 0) == expected

    def test_key_stores_only_nonzero_shares(self, rng):
        params = _params(3, 1, "2", 4, grid=(1, 4))
        keys = boyle_gen(PointDescription(1, params.modulus.one()), params, rng)
        for key in keys:
            for columns, _, shares in key.rows:
                assert columns.tolist() == sorted(columns.tolist())
                assert shares.all()

    def test_column_count(self):
        params = _params(3, 1, "5", 4)
        assert boyle_column_count(params) == 25

    def test_guard_rejects_blowup(self, rng):
        params = _params(7, 3, "257", 16)
        with pytest.raises(GuardError, match="exponential"):
            boyle_gen(PointDescription(0, params.modulus.one()), params, rng)

    def test_guard_boundary(self):
        check_guard(2, 21)  # 2^20 columns: exactly at the limit
        with pytest.raises(GuardError):
            check_guard(2, 22)

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


class TestTrivial:
    @pytest.mark.parametrize("modulus_text", ["2", "257", "2*3*5"])
    def test_round_trip(self, modulus_text, rng):
        n = 9
        params = _params(3, 1, modulus_text, n)
        beta = params.modulus.element(rng.randrange(1, params.modulus.value))
        keys = trivial_gen(PointDescription(4, beta), params, rng)
        expected = [beta.lift() if x == 4 else 0 for x in range(n)]
        assert _decode_all(keys, trivial_eval, n) == expected

    def test_table_length_is_domain(self, rng):
        params = _params(4, 1, "5", 7)
        keys = trivial_gen(PointDescription(0, params.modulus.one()), params, rng)
        for key in keys:
            assert len(key.table) == 7

    def test_single_table_is_not_the_function(self, rng):
        params = _params(3, 1, "257", 16)
        keys = trivial_gen(PointDescription(3, params.modulus.element(200)), params, rng)
        truth = [200 if x == 3 else 0 for x in range(16)]
        assert keys[0].table.lift_all() != truth

    def test_range_check(self, rng):
        params = _params(3, 1, "5", 4)
        keys = trivial_gen(PointDescription(0, params.modulus.one()), params, rng)
        with pytest.raises(ParameterError):
            trivial_eval(keys[0], 4)
