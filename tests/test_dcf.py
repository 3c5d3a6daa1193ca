"""Comparison-function sharing: f(x) = beta when x <= alpha, else 0."""

from dataclasses import replace

import pytest

from dpfkit.algebra import parse_modulus
from dpfkit.dcf import DcfKey, dcf_eval, dcf_gen
from dpfkit.dpf import DpfKey, PointDescription, SchemeParams, decode
from dpfkit.errors import HonestMajorityError, ParameterError
from dpfkit.keyfile import key_from_bytes, key_to_bytes
from dpfkit.prg import DeterministicRandomSource


def _params(parties, corrupted, modulus_text, domain, **kw):
    return SchemeParams.create(
        parties=parties,
        corrupted=corrupted,
        modulus=parse_modulus(modulus_text),
        domain_size=domain,
        **kw,
    )


def _decode_all(keys, n):
    return [decode([dcf_eval(k, x) for k in keys]).lift() for x in range(n)]


@pytest.mark.parametrize("modulus_text", ["3", "7", "2*3*5"])
@pytest.mark.parametrize("parties,corrupted", [(3, 1), (5, 2)])
def test_step_function_round_trip(parties, corrupted, modulus_text, rng):
    n = 12
    modulus = parse_modulus(modulus_text)
    params = _params(parties, corrupted, modulus_text, n)
    for alpha in (0, 4, n - 1):
        beta = modulus.element(rng.randrange(1, modulus.value))
        keys = dcf_gen(PointDescription(alpha, beta), params, rng)
        expected = [beta.lift() if x <= alpha else 0 for x in range(n)]
        assert _decode_all(keys, n) == expected


def test_boundaries_exhaustive(rng):
    params = _params(3, 1, "7", 9, grid=(3, 3))
    beta = params.modulus.element(5)
    for alpha in range(9):
        keys = dcf_gen(PointDescription(alpha, beta), params, rng)
        decoded = _decode_all(keys, 9)
        assert decoded == [5 if x <= alpha else 0 for x in range(9)]


def test_step_shape_single_drop(rng):
    # decoded vector must be constant, then drop once, then stay zero
    params = _params(3, 1, "11", 16, grid=(4, 4))
    keys = dcf_gen(PointDescription(9, params.modulus.element(8)), params, rng)
    decoded = _decode_all(keys, 16)
    drops = [
        i for i in range(1, 16) if decoded[i] != decoded[i - 1]
    ]
    assert drops == [10]
    assert decoded[0] == 8
    assert decoded[-1] == 0


def test_row_outputs_shape(rng):
    params = _params(3, 1, "7", 20, grid=(5, 4))
    keys = dcf_gen(PointDescription(11, params.modulus.one()), params, rng)
    for key in keys:
        assert isinstance(key, DcfKey)
        assert isinstance(key, DpfKey)
        assert key.row_outputs.shape == (1, params.rows)


def test_row_outputs_reconstruct_row_prefix(rng):
    # summed across parties, the per-row additions form the row-level step
    params = _params(3, 1, "7", 20, grid=(5, 4))
    keys = dcf_gen(PointDescription(11, params.modulus.element(6)), params, rng)
    target_row = 11 // params.cols
    for row in range(params.rows):
        total = sum(int(k.row_outputs[0, row]) for k in keys) % params.modulus.value
        assert total == (6 if row < target_row else 0)


def test_single_point_domain(rng):
    params = _params(3, 1, "5", 1)
    keys = dcf_gen(PointDescription(0, params.modulus.element(2)), params, rng)
    assert _decode_all(keys, 1) == [2]


def test_zero_beta(rng):
    params = _params(3, 1, "5", 8)
    keys = dcf_gen(PointDescription(3, params.modulus.element(0)), params, rng)
    assert _decode_all(keys, 8) == [0] * 8


def test_honest_majority_required(rng):
    params = _params(4, 2, "5", 8)
    with pytest.raises(HonestMajorityError):
        dcf_gen(PointDescription(0, params.modulus.one()), params, rng)


def test_eval_range_check(rng):
    params = _params(3, 1, "5", 8)
    keys = dcf_gen(PointDescription(2, params.modulus.one()), params, rng)
    with pytest.raises(ParameterError):
        dcf_eval(keys[0], 8)


def test_deterministic(rng):
    params = _params(3, 1, "2*7", 10)
    point = PointDescription(6, params.modulus.element(9))
    a = dcf_gen(point, params, DeterministicRandomSource("d"))
    b = dcf_gen(point, params, DeterministicRandomSource("d"))
    assert [key_to_bytes(x) for x in a] == [key_to_bytes(y) for y in b]


@pytest.mark.parametrize("field", ["seeds", "correction", "row_outputs"])
def test_key_checks_its_shapes(rng, field):
    # The point-key checks run for DCF keys too, then the row-output check.
    params = _params(3, 1, "2*7", 20, grid=(5, 4))
    key = dcf_gen(PointDescription(11, params.modulus.element(3)), params, rng)[0]
    wrong = {
        "seeds": key.seeds[:, :, :-1],
        "correction": key.correction[:, :-1],
        "row_outputs": key.row_outputs[:, :-1],
    }
    with pytest.raises(ParameterError):
        replace(key, **{field: wrong[field]})


def test_each_key_is_checked_once(rng, monkeypatch):
    # dcf_gen and the decoder build each key straight from its fields,
    # not a point key first and the DCF key around it.
    calls = []
    check = DpfKey.__post_init__

    def counted(key):
        calls.append(key)
        check(key)

    monkeypatch.setattr(DpfKey, "__post_init__", counted)
    params = _params(3, 1, "2*7", 20, grid=(5, 4))
    keys = dcf_gen(PointDescription(11, params.modulus.element(3)), params, rng)
    assert calls == list(keys)
    calls.clear()
    decoded = [key_from_bytes(key_to_bytes(key)) for key in keys]
    assert calls == decoded
