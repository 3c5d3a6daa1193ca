"""Self-time arithmetic and the wrapping of library bindings."""

import random

import pytest

from spans import Span, Tracer, instrument, self_times


def make(name, start, end, parent=None):
    s = Span(name, start, parent, query=0)
    s.end = end
    return s


def test_leaf_self_time_is_its_duration():
    assert self_times([make("a", 5, 17)]) == [12]


def test_nested_children_count_once():
    # query [0,100] > answer [10,60] > expand [20,30]
    tree = [make("query", 0, 100), make("answer", 10, 60, 0), make("prg.expand", 20, 30, 1)]
    assert self_times(tree) == [50, 40, 10]
    assert sum(self_times(tree)) == tree[0].duration


def test_back_to_back_children_share_an_endpoint():
    tree = [make("dpf.eval_all", 0, 100), make("prg.expand", 10, 40, 0),
            make("prg.expand", 40, 70, 0), make("prg.expand", 70, 75, 0)]
    assert self_times(tree) == [35, 30, 30, 5]


def test_overlapping_and_overhanging_children_are_merged_and_clipped():
    tree = [make("p", 0, 100), make("c", 10, 50, 0), make("c", 30, 60, 0),
            make("c", 90, 120, 0)]
    # covered: [10,60] and [90,100] -> 60
    assert self_times(tree)[0] == 40


def test_tracer_nests_and_sums_to_the_root():
    t = Tracer()
    t.query = 3
    with t.span("query"):
        with t.span("keygen"):
            pass
        with t.span("answer"):
            with t.span("answer"):
                pass
    assert [s.parent for s in t.spans] == [None, 0, 0, 2]
    assert all(s.query == 3 for s in t.spans)
    assert sum(self_times(t.spans)) == t.spans[0].duration


def test_instrument_wraps_every_binding_and_restores_it():
    from dpfkit import cli, dcf, dpf, pir, prg

    before = (prg.expand, dpf.expand, dcf.expand, pir.eval_all, cli._SCHEME_GENERATORS["ours"])
    t = Tracer()
    with instrument(t):
        assert dpf.expand is not before[1] and pir.eval_all is not before[3]
        assert cli._SCHEME_GENERATORS["ours"] is not before[4]
    assert (prg.expand, dpf.expand, dcf.expand, pir.eval_all,
            cli._SCHEME_GENERATORS["ours"]) == before


def test_wrapped_error_is_recorded_and_raised():
    from dpfkit import algebra, dpf
    from dpfkit.errors import ParameterError

    modulus = algebra.Modulus.prime(257)
    params = dpf.SchemeParams.create(3, 1, modulus, 16)
    keys = dpf.gen(dpf.PointDescription(1, modulus.element(5)), params, random.Random(0))
    t = Tracer()
    with instrument(t), pytest.raises(ParameterError):
        dpf.eval_point(keys[0], 99)
    assert [(s.name, s.error) for s in t.spans] == [("dpf.eval_point", True)]
