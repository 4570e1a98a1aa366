import pytest

import spans
from orbitopes import bnorbit, curve
from orbitopes.poly import SparsePoly


def span(name, start, end, parent):
    return spans.Span(name, start, end, parent)


def test_self_time_on_nested_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and c [5, 6];
    # b holds a recursive call of a [3.5, 3.75].
    tree = [span("a", 0.0, 10.0, -1),
            span("b", 1.0, 4.0, 0),
            span("c", 2.0, 3.0, 1),
            span("a", 3.5, 3.75, 1),
            span("c", 5.0, 6.0, 0)]
    stats = spans.layer_stats(tree)
    assert stats["a"]["calls"] == 2
    assert stats["a"]["total_s"] == pytest.approx(10.0)   # inner a not re-counted
    assert stats["a"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0 + 0.25)
    assert stats["b"]["total_s"] == pytest.approx(3.0)
    assert stats["b"]["self_s"] == pytest.approx(3.0 - 1.0 - 0.25)
    assert stats["c"] == pytest.approx({"calls": 2, "total_s": 2.0, "self_s": 2.0})


def test_wrapped_calls_record_parents_and_summaries():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, summarize=lambda r: r * 10)
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(1) == 4
    recorded = tracer.take()
    assert [(s.name, s.parent, s.info) for s in recorded] == [
        ("outer", -1, None), ("inner", 0, 20), ("inner", 0, 20)]
    assert all(s.end >= s.start for s in recorded)
    assert tracer.take() == []


def test_install_catches_cross_module_call():
    original = curve.orbit_points
    assert bnorbit.orbit_points is original
    tracer = spans.Tracer()
    tracer.install({"curve.orbit_points": None})
    try:
        assert bnorbit.orbit_points is not original
        bnorbit.sm_points(3, [0.0, 1.0])
    finally:
        tracer.uninstall()
    assert bnorbit.orbit_points is original and curve.orbit_points is original
    assert [s.name for s in tracer.take()] == ["curve.orbit_points"]
    bnorbit.sm_points(3, [0.0])
    assert tracer.take() == []


def test_install_wraps_methods_on_the_class():
    tracer = spans.Tracer()
    tracer.install({"poly.SparsePoly.loads": None,
                    "poly.SparsePoly.evaluate": None})
    try:
        p = SparsePoly.loads("1/2 1 0\n3/1 0 2\n")
        assert p.evaluate([2, 1]) == 4
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.take()] == ["poly.SparsePoly.loads",
                                               "poly.SparsePoly.evaluate"]
    assert isinstance(SparsePoly.__dict__["loads"], classmethod)
    assert SparsePoly.loads("1/1 0 0\n").nvars == 2
