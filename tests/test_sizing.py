"""Analytic size models, formula evaluation, and figure datasets."""

from math import comb

import pytest

from dpfkit.algebra import Modulus, parse_modulus
from dpfkit.baselines import boyle_gen
from dpfkit.dcf import dcf_gen
from dpfkit.dpf import PointDescription, SchemeParams, gen
from dpfkit.errors import ParameterError
from dpfkit.keyfile import header_size, key_to_bytes
from dpfkit.prg import DeterministicRandomSource
from dpfkit.sizing import (
    EXPECTED_CROSSOVER,
    MERSENNE31,
    choose_grid_boyle,
    compression_info,
    crossover_report,
    emit_figure,
    eval_formula,
    serialized_overhead_bits,
    size_boyle,
    size_boyle_crt,
    size_bunn_it,
    size_bunn_prg,
    size_dcf,
    size_ours,
    size_trivial,
)

M31 = Modulus.prime(MERSENNE31)


class TestAnalytic:
    def test_ours_reference_point(self):
        assert size_ours(10 ** 6, 7, 3, 128, M31) == 627982

    def test_ours_formula_shape(self):
        # R*B*(lambda+bits) + V*bits at the chosen grid
        m = parse_modulus("5")
        got = size_ours(100, 3, 1, 128, m, grid="square")
        assert got == 10 * comb(2, 1) * (128 + 3) + 10 * 3

    def test_dcf_adds_one_share_per_row(self):
        m = parse_modulus("5")
        ours = size_ours(100, 3, 1, 128, m, grid="square")
        assert size_dcf(100, 3, 1, 128, m, grid="square") == ours + 10 * 3

    def test_trivial(self):
        assert size_trivial(1000, parse_modulus("2*3*5*7")) == 1000 * 9

    def test_bunn_it(self):
        got = size_bunn_it(10 ** 6, 7, 3, M31)
        assert got == 1000 * comb(7, 4) * 31
        assert size_bunn_it(101, 3, 1, parse_modulus("2")) == 11 * 3 * 1

    def test_boyle_prime_only(self):
        with pytest.raises(ParameterError):
            size_boyle(100, 3, 128, parse_modulus("2*3"))
        with pytest.raises(ParameterError):
            choose_grid_boyle(100, 3, 128, parse_modulus("2*3"))

    def test_boyle_reference_point(self):
        # q=2, p=3: 4 columns/row at 97 expected bits each, 1-bit cells
        assert choose_grid_boyle(16, 3, 128, parse_modulus("2")) == (1, 16)
        assert size_boyle(16, 3, 128, parse_modulus("2")) == 404.0

    def test_boyle_crt_sums_factors(self):
        m = parse_modulus("2*3")
        expected = size_boyle(50, 3, 128, parse_modulus("2")) + size_boyle(
            50, 3, 128, parse_modulus("3")
        )
        assert size_boyle_crt(50, 3, 128, m) == expected

    @pytest.mark.parametrize("bits", [0, 12, 65536])
    def test_seed_lengths_that_keygen_refuses_are_refused(self, bits):
        m = parse_modulus("2*3")
        for size in (
            lambda: size_ours(100, 3, 1, bits, m),
            lambda: size_dcf(100, 3, 1, bits, m),
            lambda: size_boyle(100, 3, bits, parse_modulus("3")),
            lambda: size_boyle_crt(100, 3, bits, m),
            lambda: choose_grid_boyle(100, 3, bits, parse_modulus("3")),
            lambda: size_bunn_prg("lam", 100, 3, 1, m, bits),
            lambda: compression_info(lambda_bits=bits),
        ):
            with pytest.raises(ParameterError, match="seed length"):
                size()

    def test_compression_info_reference(self):
        assert compression_info() == pytest.approx(1085000 / 627982)


class TestMeasuredAgreement:
    def test_exact_overhead_point_scheme(self):
        params = SchemeParams.create(
            parties=5, corrupted=2, modulus=parse_modulus("2*3*257"), domain_size=300
        )
        rng = DeterministicRandomSource("sz1")
        key = gen(PointDescription(123, params.modulus.element(9)), params, rng)[0]
        analytic = size_ours(300, 5, 2, 128, params.modulus)
        assert 8 * len(key_to_bytes(key)) == analytic + serialized_overhead_bits(params, "ours")

    def test_exact_overhead_comparison_scheme(self):
        params = SchemeParams.create(
            parties=3, corrupted=1, modulus=parse_modulus("7"), domain_size=50
        )
        rng = DeterministicRandomSource("sz2")
        key = dcf_gen(PointDescription(20, params.modulus.element(2)), params, rng)[1]
        analytic = size_dcf(50, 3, 1, 128, params.modulus)
        assert 8 * len(key_to_bytes(key)) == analytic + serialized_overhead_bits(params, "dcf")

    def test_exact_overhead_trivial_scheme(self):
        from dpfkit.baselines import trivial_gen

        params = SchemeParams.create(
            parties=3, corrupted=1, modulus=parse_modulus("2*13"), domain_size=64
        )
        rng = DeterministicRandomSource("sz3")
        key = trivial_gen(PointDescription(5, params.modulus.one()), params, rng)[2]
        analytic = size_trivial(64, params.modulus)
        assert 8 * len(key_to_bytes(key)) == analytic + serialized_overhead_bits(
            params, "trivial"
        )

    def test_boyle_model_within_15_percent(self):
        # q=2, p=3 stores exactly 2 tuples per row, so the measured size
        # is deterministic and the expected-size model must sit close
        modulus = parse_modulus("2")
        grid = choose_grid_boyle(16, 3, 128, modulus)
        params = SchemeParams.create(
            parties=3, corrupted=1, modulus=modulus, domain_size=16, grid=grid
        )
        rng = DeterministicRandomSource("sz4")
        key = boyle_gen(PointDescription(3, params.modulus.one()), params, rng)[0]
        model = size_boyle(16, 3, 128, modulus)
        # serialized bits minus the header and the u32 record count per row
        measured = 8 * len(key_to_bytes(key)) - 8 * header_size(modulus) - 32 * params.rows
        assert abs(measured - model) / model < 0.15

    @pytest.mark.parametrize("q, parties, domain", [(2, 3, 40), (5, 3, 100), (3, 4, 30)])
    def test_boyle_file_size_is_a_closed_form(self, q, parties, domain):
        # Every row stores T = q^(p-2)(q-1) records of a u32 column, a seed
        # and a share, after its u32 count; then the correction.
        modulus = parse_modulus(str(q))
        grid = choose_grid_boyle(domain, parties, 128, modulus)
        params = SchemeParams.create(
            parties=parties, corrupted=1, modulus=modulus, domain_size=domain, grid=grid
        )
        rng = DeterministicRandomSource("sz5")
        keys = boyle_gen(PointDescription(domain - 1, params.modulus.one()), params, rng)
        held = q ** (parties - 2) * (q - 1)
        rows, cols = grid
        expected = header_size(modulus) + rows * (4 + held * (4 + 16 + 1)) + cols
        assert [len(key_to_bytes(key)) for key in keys] == [expected] * parties

    def test_overhead_unknown_scheme(self):
        params = SchemeParams.create(
            parties=3, corrupted=1, modulus=parse_modulus("5"), domain_size=4
        )
        with pytest.raises(ParameterError):
            serialized_overhead_bits(params, "boyle15")


class TestCrossover:
    def test_report_matches_documented_constants(self):
        rep = crossover_report()
        assert rep.boyle_crt_210 == EXPECTED_CROSSOVER["boyle_crt_210"]
        assert rep.trivial_210 == EXPECTED_CROSSOVER["trivial_210"]
        assert rep.boyle_crt_2310 == EXPECTED_CROSSOVER["boyle_crt_2310"]
        assert rep.trivial_2310 == EXPECTED_CROSSOVER["trivial_2310"]
        assert rep.lower_bound_q7 == pytest.approx(
            EXPECTED_CROSSOVER["lower_bound_q7"], rel=1e-12
        )

    def test_lower_bound_certifies_the_gap(self):
        # no grid can bring the q=7 factor below 2*sqrt(N*K*b), which
        # already exceeds the whole trivial key at modulus 210
        rep = crossover_report()
        assert rep.lower_bound_q7 <= rep.boyle_crt_210
        assert rep.lower_bound_q7 > rep.trivial_210

    def test_2310_half_holds(self):
        assert crossover_report().exceeds_at_2310


class TestFormulaEvaluator:
    def test_arithmetic(self):
        assert eval_formula("2 + 3 * 4") == 14.0
        assert eval_formula("2 ** 10 - 24") == 1000.0
        assert eval_formula("-N + 5", N=3) == 2.0
        assert eval_formula("7 // 2 + 7 % 2") == 4.0

    def test_functions(self):
        assert eval_formula("sqrt(N) * binom(p, 2)", N=16, p=4) == 24.0
        assert eval_formula("ceil(log2(q))", q=31) == 5.0
        assert eval_formula("min(3, max(1, 2))") == 2.0

    def test_bunn_prg_binding(self):
        got = size_bunn_prg(
            "lam * sqrt(N) * C", 100, 3, 1, parse_modulus("5"), 128
        )
        assert got == 128 * 10 * 3

    @pytest.mark.parametrize(
        "bad",
        [
            "__import__('os')",
            "q.bit_length()",
            "open('x')",
            "[1,2]",
            "lambda: 1",
            "unknown_var + 1",
            "sqrt(N",
            "exec('1')",
        ],
    )
    def test_rejects_non_arithmetic(self, bad):
        with pytest.raises(ParameterError):
            eval_formula(bad, N=4, q=5)


class TestFigures:
    def test_modulus_sweep_contents(self):
        ds = emit_figure("modulus", domain_size=10 ** 4, x_values=[2, 6, 7])
        assert ds.figure == "modulus-sweep"
        schemes = {s for s, _, _ in ds.rows}
        assert schemes == {"ours", "trivial", "bunn-it", "boyle15", "boyle15-crt"}
        primes_only = [x for s, x, _ in ds.rows if s == "boyle15"]
        assert primes_only == [2, 7]
        assert list(ds.rows) == sorted(ds.rows, key=lambda r: (r[0], r[1]))

    def test_primorial_sweep_default_points(self):
        ds = emit_figure("primorial", domain_size=10 ** 4)
        xs = sorted({x for s, x, _ in ds.rows if s == "trivial"})
        assert xs == [2, 6, 30, 210, 2310, 30030, 510510]

    def test_domain_sweep(self):
        ds = emit_figure("domain", x_values=[100, 1000])
        assert ds.figure == "domain-sweep"
        by_scheme = {}
        for s, x, bits in ds.rows:
            by_scheme.setdefault(s, []).append((x, bits))
        assert set(by_scheme) == {"ours", "trivial", "bunn-it"}
        assert by_scheme["trivial"] == [(100, 3100), (1000, 31000)]

    def test_party_sweep_with_formula(self):
        ds = emit_figure(
            "parties", x_values=[3, 5], bunn_prg_formula="p * sqrt(N)"
        )
        rows = {(s, x): b for s, x, b in ds.rows}
        assert rows[("bunn-prg", 3)] == 3 * 1000.0
        assert rows[("bunn-prg", 5)] == 5 * 1000.0

    def test_csv_format(self, tmp_path):
        ds = emit_figure("domain", x_values=[100])
        text = ds.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "scheme,x,bits"
        assert f"trivial,100,3100" in lines
        out = tmp_path / "fig.csv"
        ds.write_csv(out)
        assert out.read_text() == text

    def test_unknown_figure(self):
        with pytest.raises(ParameterError):
            emit_figure("pie")
