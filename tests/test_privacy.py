"""Coalition views: seed coverage and indistinguishability structure."""

import hashlib
import itertools
import tracemalloc
from collections import Counter

import pytest

from dpfkit.algebra import Modulus, parse_modulus
from dpfkit.dpf import (
    PointDescription,
    SchemeParams,
    check_seed_coverage,
    gen,
    simulate_coalition_view,
)
from dpfkit.errors import GuardError, ParameterError
from dpfkit.keyfile import key_to_bytes
from dpfkit.prg import PRG_SHAKE128, PRG_TEST_LCG, DeterministicRandomSource


def _params(parties, corrupted, modulus_text, domain, **kw):
    return SchemeParams.create(
        parties=parties,
        corrupted=corrupted,
        modulus=parse_modulus(modulus_text),
        domain_size=domain,
        **kw,
    )


def _coverage_reference(parties, corrupted, coalition):
    """Whether some (m+1)-subset avoids the coalition, by enumerating the
    subsets: the reference for `check_seed_coverage`'s closed form."""
    members = set(coalition)
    return any(
        not members.intersection(subset)
        for subset in itertools.combinations(range(parties), corrupted + 1)
    )


class TestSeedCoverage:
    def test_closed_form_matches_the_enumeration(self):
        for p in range(2, 10):
            coalitions = [
                c for k in range(p + 1) for c in itertools.combinations(range(p), k)
            ]
            for m in range(1, p):
                for coalition in coalitions:
                    expected = _coverage_reference(p, m, coalition)
                    assert check_seed_coverage(p, m, coalition) == expected, (p, m, coalition)
                    # a repeated member counts once
                    repeated = coalition + coalition[:1]
                    assert check_seed_coverage(p, m, repeated) == expected, (p, m, repeated)

    def test_many_parties_return_at_once(self, capped_python):
        # An enumeration of the subsets would take minutes from p = 31 on,
        # so the calls run in a child that the timeout ends.
        child = capped_python("""
            import time
            from dpfkit.dpf import check_seed_coverage
            for p, m in ((31, 15), (65535, 32767)):
                start = time.perf_counter()
                assert check_seed_coverage(p, m, range(m))
                assert not check_seed_coverage(p, m, range(p - m))
                print(time.perf_counter() - start)
        """, timeout=10)
        assert child.returncode == 0, child.stderr
        assert [float(t) < 1 for t in child.stdout.split()] == [True, True], child.stdout

    def test_every_honest_coalition_misses_a_column(self):
        for p in range(3, 8):
            for m in range(1, (p + 1) // 2):
                for coalition in itertools.combinations(range(p), m):
                    assert check_seed_coverage(p, m, coalition)

    def test_majority_coalition_covers_everything(self):
        # with m at or past p/2, a size-m coalition touches every
        # (m+1)-subset, so no seed stays hidden
        for p in range(3, 8):
            m = -(-p // 2)
            coalition = range(m)
            assert not check_seed_coverage(p, m, coalition)

    def test_empty_coalition_sees_nothing(self):
        assert check_seed_coverage(5, 2, ())

    def test_member_range_validated(self):
        with pytest.raises(ParameterError):
            check_seed_coverage(5, 2, (0, 5))


# sha256 over the key bytes of every view in SIMULATED_VIEW_SWEEP, captured
# when the simulator began to draw distinct seeds.  The 128-bit views kept
# the bytes they had when it drew with replacement; some 16-bit view drew a
# repeated seed then, so those bytes changed too.
SIMULATED_VIEW_DIGEST = "689895f3e89bc182a903cca9fee9a21bca41c97a6bc607cc04f4b06e455b2c6a"

SIMULATED_VIEW_SWEEP = [
    # parties, corrupted, modulus, grid, lambda bits, PRG tag; at 8 bits
    # each one-member view draws 234-260 candidates for its 160 seeds, so
    # it skips repeats, and two of the three skip an all-zero candidate.
    (3, 1, "5", (80, 2), 8, PRG_SHAKE128),
    (5, 2, "2*3*5*7", (6, 7), 16, PRG_TEST_LCG),
    (7, 3, "2147483647", (3, 10), 128, PRG_SHAKE128),
]


class TestSimulatedView:
    def test_view_bytes_are_pinned(self):
        digest = hashlib.sha256()
        for parties, corrupted, modulus, grid, bits, tag in SIMULATED_VIEW_SWEEP:
            params = _params(
                parties, corrupted, modulus, grid[0] * grid[1],
                grid=grid, lambda_bits=bits, prg_algorithm=tag,
            )
            for size in range(corrupted + 1):
                for coalition in itertools.combinations(range(parties), size):
                    rng = DeterministicRandomSource(f"view/{parties}/{coalition}")
                    view = simulate_coalition_view(params, coalition, rng)
                    assert [key.party for key in view.keys] == list(coalition)
                    for key in view.keys:
                        digest.update(key_to_bytes(key))
        assert digest.hexdigest() == SIMULATED_VIEW_DIGEST

    def test_coalition_bound_enforced(self):
        params = _params(5, 2, "7", 16)
        rng = DeterministicRandomSource("sim")
        with pytest.raises(ParameterError):
            simulate_coalition_view(params, (0, 1, 2), rng)
        # a negative member would otherwise take party p-1's columns
        for coalition in ((0, 9), (-1,)):
            with pytest.raises(ParameterError, match=f"member {coalition[-1]} out of range"):
                simulate_coalition_view(params, coalition, rng)

    def test_refused_where_the_dealer_is_refused(self, refusing_rng):
        # the dealer's tables bound: 5965232 rows at p = 3 fit, one more does not
        modulus = Modulus.prime(7)
        params = SchemeParams(3, 1, 128, modulus, 5965233, 5965233, 1)
        with pytest.raises(GuardError, match="refusing to deal tables"):
            simulate_coalition_view(params, (0,), refusing_rng)
        params = SchemeParams(3, 1, 128, modulus, 5965232, 5965232, 1)
        with pytest.raises(AssertionError, match="random bytes"):
            simulate_coalition_view(params, (0,), refusing_rng)

    def test_refused_where_the_dealer_runs_out_of_seeds(self, refusing_rng):
        # 200 x 3 cells need distinct non-zero one-byte seeds, of which 255
        # exist.  The layout refuses the deal before any read, so the
        # simulator is refused with it, before drawing a view's 400 cells.
        params = _params(3, 1, "5", 400, grid=(200, 2), lambda_bits=8)
        point = PointDescription(0, params.modulus.one())
        with pytest.raises(ParameterError, match="600 cells exceed the 255 1-byte seeds"):
            gen(point, params, refusing_rng)
        with pytest.raises(ParameterError, match="600 cells exceed the 255 1-byte seeds"):
            simulate_coalition_view(params, (0,), refusing_rng)

    def test_views_repeat_no_seed(self):
        # Drawn with replacement, 170 of these 300 views of 20 one-byte seeds
        # repeated one; no real key does.
        params = _params(3, 1, "7", 30, grid=(10, 3), lambda_bits=8)
        rng = DeterministicRandomSource("repeats")
        for _ in range(300):
            (key,) = simulate_coalition_view(params, (0,), rng).keys
            seeds = key.seeds.ravel().tolist()
            assert len(set(seeds)) == len(seeds) == 20

    def test_draws_only_the_seeds_its_coalition_sees(self):
        # A full seed table for these params takes 20000 * 35 * 16 bytes,
        # 11.2 MB; the empty coalition sees none of it.
        params = _params(7, 3, "7", 20000, grid=(20000, 1))
        params.layout  # cached before tracing: its arrays are not seeds
        tracemalloc.start()
        try:
            view = simulate_coalition_view(params, (), DeterministicRandomSource("empty"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert view.keys == ()
        assert peak < 1 << 20

    def test_byte_lengths_match_real_keys(self):
        params = _params(5, 2, "2*3*5", 30)
        rng = DeterministicRandomSource("sim2")
        real = gen(PointDescription(7, params.modulus.one()), params, rng)
        view = simulate_coalition_view(params, (1, 3), rng)
        assert view.coalition == frozenset((1, 3))
        for key in view.keys:
            assert len(key_to_bytes(key)) == len(key_to_bytes(real[key.party]))

    def test_coalition_members_share_column_seeds(self):
        params = _params(5, 2, "7", 16)
        rng = DeterministicRandomSource("sim3")
        view = simulate_coalition_view(params, (0, 2), rng)
        key_by_party = {k.party: k for k in view.keys}
        columns = params.layout[0].tolist()
        shared = set(columns[0]) & set(columns[2])
        assert shared
        for row in range(params.rows):
            for j in shared:
                seeds = {
                    key_by_party[party].seeds[row, columns[party].index(j)].tobytes()
                    for party in (0, 2)
                }
                assert len(seeds) == 1

    def test_distinct_columns_get_distinct_seeds(self):
        params = _params(3, 1, "5", 9)
        rng = DeterministicRandomSource("sim4")
        view = simulate_coalition_view(params, (1,), rng)
        key = view.keys[0]
        for row in key.seeds:
            seeds = [seed.tobytes() for seed in row]
            assert len(set(seeds)) == len(seeds)


def _share_histogram(keys, coalition):
    counts = Counter()
    for key in keys:
        if key.party not in coalition:
            continue
        counts.update(key.shares[0].ravel().tolist())
    return counts


def test_share_marginals_match_simulation():
    """Coalition share values from real keygens look uniform, like simulated ones."""
    scipy_stats = pytest.importorskip("scipy.stats")
    q = 5
    params = _params(3, 1, str(q), 16, grid=(4, 4))
    coalition = (0,)
    runs = 150

    rng = DeterministicRandomSource("chi-real")
    real = Counter()
    for i in range(runs):
        keys = gen(PointDescription(i % 16, params.modulus.one()), params, rng)
        real += _share_histogram(keys, coalition)

    rng = DeterministicRandomSource("chi-sim")
    simulated = Counter()
    for _ in range(runs):
        view = simulate_coalition_view(params, coalition, rng)
        simulated += _share_histogram(view.keys, coalition)

    for counts in (real, simulated):
        observed = [counts[v] for v in range(q)]
        assert sum(observed) == runs * params.rows * params.tuples_per_row
        result = scipy_stats.chisquare(observed)
        assert result.pvalue > 0.001, observed
