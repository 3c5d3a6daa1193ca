"""Acceptance suite: ten end-to-end checks, one reported line each.

Run with -s to see the `[criterion NN] PASS/FAIL` lines directly; under
plain pytest the line is still emitted into captured output and the
test outcome mirrors it.
"""

import itertools
import time
from collections import Counter
from math import comb

import pytest

from dpfkit.algebra import FieldVector, Modulus, parse_modulus
from dpfkit.baselines import boyle_gen, trivial_gen
from dpfkit.dcf import dcf_eval, dcf_gen
from dpfkit.dpf import (
    PointDescription,
    SchemeParams,
    check_seed_coverage,
    decode,
    eval_all,
    eval_point,
    gen,
    simulate_coalition_view,
)
from dpfkit.keyfile import key_from_bytes, key_to_bytes, read_key_file, write_key_file
from dpfkit.pir import Database, pir_answer, pir_query, pir_reconstruct
from dpfkit.prg import DeterministicRandomSource, expansion_count
from dpfkit.sizing import (
    EXPECTED_CROSSOVER,
    MERSENNE31,
    compression_info,
    crossover_report,
    emit_figure,
    size_boyle,
    size_ours,
)

M31 = Modulus.prime(MERSENNE31)


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def big_keys():
    """One large keygen shared by the scaling and performance checks."""
    params = SchemeParams.create(
        parties=7, corrupted=3, modulus=M31, domain_size=10 ** 6
    )
    rng = DeterministicRandomSource("acceptance-large")
    keys = gen(PointDescription(123456, M31.element(987654321)), params, rng)
    return params, keys


def test_criterion_01_correctness_sweep():
    start = time.perf_counter()
    rng = DeterministicRandomSource("criterion-1")
    party_sets = [(3, 1), (4, 1), (5, 1), (5, 2), (7, 1), (7, 2), (7, 3)]
    checked = 0
    for n in (1, 4, 9, 16, 64):
        for parties, corrupted in party_sets:
            for modulus_text in ("2", "3", "5", "257", "15"):
                modulus = parse_modulus(modulus_text)
                params = SchemeParams.create(
                    parties=parties,
                    corrupted=corrupted,
                    modulus=modulus,
                    domain_size=n,
                )
                for _ in range(5):
                    alpha = rng.randrange(n)
                    beta = modulus.element(rng.randrange(modulus.value))
                    keys = gen(PointDescription(alpha, beta), params, rng)
                    vectors = [eval_all(k) for k in keys]
                    total = vectors[0]
                    for v in vectors[1:]:
                        total = total + v
                    expected = [
                        beta.lift() if x == alpha else 0 for x in range(n)
                    ]
                    assert total.lift_all() == expected, (n, parties, corrupted, modulus_text, alpha)
                    checked += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        checked == 875 and elapsed < 60,
        f"decode equals truth table for {checked} random points over "
        f"N x (p,m) x q sweep in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_seed_coverage():
    start = time.perf_counter()
    honest = 0
    for p in range(3, 10):
        for m in range(1, (p + 1) // 2):
            if 2 * m >= p:
                continue
            for coalition in itertools.combinations(range(p), m):
                assert check_seed_coverage(p, m, coalition), (p, m, coalition)
                honest += 1
    covering = 0
    for p in range(3, 10):
        m = -(-p // 2)  # past the honest-majority bound
        assert not check_seed_coverage(p, m, range(m)), p
        covering += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        elapsed < 10,
        f"{honest} honest coalitions all leave an uncovered column; "
        f"{covering} majority coalitions cover everything ({elapsed:.1f}s < 10s)",
    )


def test_criterion_03_no_exponential_factor(big_keys):
    start = time.perf_counter()
    ours_small = size_ours(10 ** 6, 7, 3, 128, Modulus.prime(2))
    ours_large = size_ours(10 ** 6, 7, 3, 128, M31)
    analytic_ratio = ours_large / ours_small
    boyle_ratio = size_boyle(10 ** 6, 7, 128, M31) / size_boyle(
        10 ** 6, 7, 128, Modulus.prime(2)
    )
    formula_elapsed = time.perf_counter() - start

    params2 = SchemeParams.create(
        parties=7, corrupted=3, modulus=Modulus.prime(2), domain_size=10 ** 6
    )
    rng = DeterministicRandomSource("criterion-3")
    key2 = gen(PointDescription(5, params2.modulus.one()), params2, rng)[0]
    _, keys31 = big_keys
    measured_ratio = len(key_to_bytes(keys31[0])) / len(key_to_bytes(key2))

    ok = (
        analytic_ratio <= 31
        and measured_ratio <= 31
        and boyle_ratio >= 10 ** 6
        and formula_elapsed < 1.0
    )
    _report(
        3,
        ok,
        f"modulus 2 -> 2^31-1: ours x{analytic_ratio:.2f} analytic, "
        f"x{measured_ratio:.2f} measured (both <= 31); "
        f"full-enumeration model x{boyle_ratio:.2e} (>= 1e6)",
    )


def test_criterion_04_crossover_documented():
    rep = crossover_report()
    documented = (
        rep.boyle_crt_210 == EXPECTED_CROSSOVER["boyle_crt_210"]
        and rep.trivial_210 == EXPECTED_CROSSOVER["trivial_210"]
        and rep.boyle_crt_2310 == EXPECTED_CROSSOVER["boyle_crt_2310"]
        and rep.trivial_2310 == EXPECTED_CROSSOVER["trivial_2310"]
        and abs(rep.lower_bound_q7 - EXPECTED_CROSSOVER["lower_bound_q7"]) < 1.0
    )
    if rep.reproduced_at_210:
        ok = rep.exceeds_at_2310 and documented
        detail = (
            f"model crossover reproduced: {rep.boyle_crt_210:.3g} <= "
            f"{rep.trivial_210} at 210 and {rep.boyle_crt_2310:.3g} > "
            f"{rep.trivial_2310} at 2310"
        )
    else:
        # The documented models do not dip below trivial at 210 for
        # N=1e6: the q=7 factor alone is bounded below 2*sqrt(N*K*b),
        # already above the whole trivial key.  The constants are frozen
        # in EXPECTED_CROSSOVER and explained in the package docs; this
        # branch certifies the gap instead of quietly retuning it.
        certified = rep.lower_bound_q7 > rep.trivial_210
        ok = documented and certified and rep.exceeds_at_2310
        detail = (
            f"documented discrepancy: model {rep.boyle_crt_210:.4g} > trivial "
            f"{rep.trivial_210} at 210 (lower bound {rep.lower_bound_q7:.4g} "
            f"certifies no grid helps); 2310 half holds "
            f"({rep.boyle_crt_2310:.4g} > {rep.trivial_2310}); constants match docs"
        )
    _report(4, ok, detail)


def test_criterion_05_figure_shapes():
    modulus_ds = emit_figure("modulus")
    by_x: dict[int, dict[str, float]] = {}
    for scheme, x, bits in modulus_ds.rows:
        by_x.setdefault(x, {})[scheme] = bits

    ours_below = all(row["ours"] < row["trivial"] for row in by_x.values())
    bunn_below = all(row["bunn-it"] < row["trivial"] for row in by_x.values())
    boyle_above = all(
        row["boyle15"] > row["trivial"] and row["boyle15-crt"] > row["trivial"]
        for x, row in by_x.items()
        if "boyle15" in row and x > 5
    )

    party_ds = emit_figure("parties")
    by_party: dict[int, dict[str, float]] = {}
    for scheme, x, bits in party_ds.rows:
        by_party.setdefault(x, {})[scheme] = bits
    ratios = [
        by_party[p]["ours"] / by_party[p]["bunn-it"] for p in sorted(by_party)
    ]
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))

    achieved = compression_info()
    print(
        f"[criterion 05]   info: achieved ours-vs-bunn-it ratio at c_it=1 is "
        f"{achieved:.2f}x"
    )
    _report(
        5,
        ours_below and bunn_below and boyle_above and decreasing,
        "modulus sweep keeps ours and bunn-it under trivial, full-enumeration "
        "above trivial for primes > 5; ours/bunn-it falls with party count "
        f"({', '.join(f'{r:.2f}' for r in ratios)})",
    )


def _coalition_share_counts(keys, coalition, q):
    counts = Counter()
    for key in keys:
        if key.party in coalition:
            counts.update(key.shares[0].ravel().tolist())
    return counts


def test_criterion_06_statistical_privacy():
    scipy_stats = pytest.importorskip("scipy.stats")
    start = time.perf_counter()
    q = 7
    params = SchemeParams.create(
        parties=5,
        corrupted=2,
        modulus=Modulus.prime(q),
        domain_size=16,
        grid="square",
    )
    coalition = (0, 1)
    runs = 400

    histograms = {}
    lengths = {}
    for alpha in (0, 7):
        rng = DeterministicRandomSource(f"criterion-6-alpha-{alpha}")
        counts = Counter()
        for _ in range(runs):
            keys = gen(PointDescription(alpha, params.modulus.one()), params, rng)
            counts += _coalition_share_counts(keys, coalition, q)
        histograms[f"alpha={alpha}"] = counts
        lengths[f"alpha={alpha}"] = [
            len(key_to_bytes(keys[p])) for p in coalition
        ]

    rng = DeterministicRandomSource("criterion-6-simulated")
    sim_counts = Counter()
    for _ in range(runs):
        view = simulate_coalition_view(params, coalition, rng)
        sim_counts += _coalition_share_counts(view.keys, coalition, q)
    histograms["simulated"] = sim_counts
    view = simulate_coalition_view(params, coalition, rng)
    lengths["simulated"] = [len(key_to_bytes(k)) for k in view.keys]

    pvalues = {}
    for name, counts in histograms.items():
        observed = [counts[v] for v in range(q)]
        pvalues[f"{name} uniform"] = scipy_stats.chisquare(observed).pvalue
    pairs = [("alpha=0", "alpha=7"), ("alpha=0", "simulated"), ("alpha=7", "simulated")]
    for a, b in pairs:
        table = [
            [histograms[a][v] for v in range(q)],
            [histograms[b][v] for v in range(q)],
        ]
        pvalues[f"{a} vs {b}"] = scipy_stats.chi2_contingency(table).pvalue

    same_lengths = lengths["alpha=0"] == lengths["alpha=7"] == lengths["simulated"]
    all_pass = all(p > 0.001 for p in pvalues.values())
    elapsed = time.perf_counter() - start
    worst = min(pvalues, key=pvalues.get)
    _report(
        6,
        all_pass and same_lengths and elapsed < 30,
        f"share marginals uniform and alpha-independent at the 99.9% level "
        f"(worst {worst}: p={pvalues[worst]:.3f}); key lengths identical "
        f"({elapsed:.1f}s < 30s)",
    )


def test_criterion_07_comparison_function():
    start = time.perf_counter()
    rng = DeterministicRandomSource("criterion-7")
    checked = 0
    for parties, corrupted in ((3, 1), (5, 2)):
        for q in (3, 7):
            modulus = Modulus.prime(q)
            for n in (1, 4, 16, 64):
                params = SchemeParams.create(
                    parties=parties,
                    corrupted=corrupted,
                    modulus=modulus,
                    domain_size=n,
                )
                alphas = sorted({0, n - 1, n // 2, 2 * n // 3})
                for alpha in alphas:
                    beta = modulus.element(rng.randrange(1, q))
                    keys = dcf_gen(PointDescription(alpha, beta), params, rng)
                    decoded = [
                        decode([dcf_eval(k, x) for k in keys]).lift()
                        for x in range(n)
                    ]
                    expected = [beta.lift() if x <= alpha else 0 for x in range(n)]
                    assert decoded == expected, (parties, q, n, alpha)
                    # step shape: constant prefix, single drop, zero tail
                    drops = [
                        x
                        for x in range(1, n)
                        if decoded[x] != decoded[x - 1]
                    ]
                    assert drops == ([alpha + 1] if alpha + 1 < n else [])
                    checked += 1
    elapsed = time.perf_counter() - start
    _report(
        7,
        elapsed < 30,
        f"{checked} comparison keys decode to exact step functions, "
        f"boundaries included ({elapsed:.1f}s < 30s)",
    )


def test_criterion_08_pir_end_to_end():
    start = time.perf_counter()
    n, parties, corrupted = 10 ** 4, 5, 2
    params = SchemeParams.create(
        parties=parties, corrupted=corrupted, modulus=M31, domain_size=n
    )
    rng = DeterministicRandomSource("criterion-8")
    db = Database(M31, FieldVector.random(M31, n, rng))

    upload_bits = None
    for _ in range(100):
        index = rng.randrange(n)
        keys = pir_query(index, params, rng)
        if upload_bits is None:
            upload_bits = sum(8 * len(key_to_bytes(k)) for k in keys)
        answers = [pir_answer(k, db) for k in keys]
        value = pir_reconstruct(answers, params)
        assert value.lift() == db.entries[index].lift(), index

    trivial_transfer = n * 31
    elapsed = time.perf_counter() - start
    _report(
        8,
        upload_bits < trivial_transfer and elapsed < 30,
        f"100 private lookups exact; upload {upload_bits} bits < "
        f"{trivial_transfer} trivial transfer ({elapsed:.1f}s < 30s)",
    )


def test_criterion_09_serialization_stability(tmp_path):
    goldens = {}
    for scheme, generator in (
        ("ours", gen),
        ("dcf", dcf_gen),
        ("boyle15", boyle_gen),
        ("trivial", trivial_gen),
    ):
        modulus = parse_modulus("5")
        params = SchemeParams.create(
            parties=3, corrupted=1, modulus=modulus, domain_size=9
        )
        point = PointDescription(4, modulus.element(2))

        blobs = []
        for _ in range(2):
            rng = DeterministicRandomSource(f"criterion-9-{scheme}")
            keys = generator(point, params, rng)
            blobs.append([key_to_bytes(k) for k in keys])
        assert blobs[0] == blobs[1], scheme  # golden stability per seed

        keys = [key_from_bytes(b) for b in blobs[0]]
        path = tmp_path / f"{scheme}.dpfk"
        write_key_file(path, keys[0])
        back = read_key_file(path)
        assert key_to_bytes(back) == blobs[0][0]

        evaluate = dcf_eval if scheme == "dcf" else eval_point
        originals = generator(
            point, params, DeterministicRandomSource(f"criterion-9-{scheme}")
        )
        for original, blob in zip(originals, blobs[0]):
            restored = key_from_bytes(blob)
            for x in range(9):
                assert evaluate(restored, x).lift() == evaluate(original, x).lift()
        goldens[scheme] = len(blobs[0][0])

    _report(
        9,
        len(goldens) == 4,
        "write/read/eval round-trips byte-exact for all four scheme tags; "
        f"regeneration under a fixed seed is byte-identical (sizes: {goldens})",
    )


def test_criterion_10_performance_smoke(big_keys):
    params, keys = big_keys
    assert (params.rows, params.cols) == (99, 10102)
    expected_expansions = params.rows * comb(6, 3)

    before = expansion_count()
    start = time.perf_counter()
    vector = eval_all(keys[0])
    elapsed = time.perf_counter() - start
    used = expansion_count() - before

    ok = (
        elapsed < 10
        and used == expected_expansions
        and len(vector) == 10 ** 6
    )
    _report(
        10,
        ok,
        f"full evaluation over 10^6 points in {elapsed:.2f}s (< 10s) with "
        f"exactly {used} seed expansions (= R*C(6,3) = {expected_expansions})",
    )
