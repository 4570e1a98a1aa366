import json
import time
from pathlib import Path

import pytest

import spans
import worker
import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_depends_on_seed(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first = make(0, tmp_path).signature()
    assert make(0, tmp_path).signature() == first
    assert make(1, tmp_path).signature() != first


def test_certify_mixes_repeated_and_one_off_grids(tmp_path):
    workload = workloads.certify(0, tmp_path)
    share, keyed = workload.repeat_share()
    assert len(workload.ops) >= 200
    assert keyed > 500 and 0.5 < share < 1.0


def make_op(execute, check=lambda result: [], report=lambda result: "{}",
            limit_s=5.0):
    return workloads.Op("op", "op", execute, check, report, limit_s)


def test_time_limit_fails_the_op_instead_of_hanging():
    def spin():
        while True:
            pass

    latencies = []
    began = time.perf_counter()
    problem = worker.run_op(make_op(spin, limit_s=0.2), "0", {}, latencies)
    assert "time limit" in problem
    assert time.perf_counter() - began < 5.0
    assert len(latencies) == 1


def test_failed_check_and_exception_are_failures():
    assert worker.run_op(make_op(lambda: 1, check=lambda r: ["wrong"]),
                         "0", {}, []) == "wrong"
    assert "ZeroDivisionError" in worker.run_op(make_op(lambda: 1 / 0),
                                                "0", {}, [])


def test_changed_report_is_a_failure():
    digests = {}
    assert worker.run_op(make_op(lambda: 1, report=lambda r: "a"), "7",
                         digests, []) is None
    assert worker.run_op(make_op(lambda: 1, report=lambda r: "a"), "7",
                         digests, []) is None
    assert "differs" in worker.run_op(make_op(lambda: 1, report=lambda r: "b"),
                                      "7", digests, [])


def test_derived_ratios_from_child_spans():
    tree = [spans.Span("exactla.nullspace_modular", 0, 4, -1, info=2)]
    tree += [spans.Span("exactla.rref_mod_p", i, i + 1, 0) for i in range(3)]
    tree += [spans.Span("secantfit.sample_secants", 5, 9, -1, info=3)]
    tree += [spans.Span("curve.orbit_points", 5 + i, 6 + i, 4) for i in range(4)]
    metrics = worker.layer_metrics(tree)
    assert metrics["exactla.prime_yield"] == pytest.approx(2 / 3)
    assert metrics["exactla.rref_mod_p.calls"] == 3
    assert metrics["exactla.nullspace_modular.self_s"] == pytest.approx(1.0)
    assert metrics["secantfit.sample_accept_ratio"] == pytest.approx(3 / 4)
    assert metrics["lp.optimal_ratio"] == 0.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2]
                       / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == dict(worker.END_TO_END_UNITS, setup_s="s")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == worker.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
