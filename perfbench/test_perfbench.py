"""Tests of the benchmark's own checker, spans and instance generation.

Run with the package on the path:  PYTHONPATH=src python -m pytest perfbench
"""

import pytest

pytest.importorskip("scipy")

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dualseed import datagen, lap_core, rowdualnet, warmstart  # noqa: E402


def _solved(n=12, seed=5):
    c = datagen.gen_dense(n, seed)
    assignment, duals, _ = lap_core.solve_cold(c)
    return c.values, assignment, duals


def test_checker_passes_a_correct_solve():
    values, a, d = _solved()
    best = checks.optimum(values)
    assert checks.assignment_faults(values, a.row_to_col, a.total_cost, best) == []
    assert checks.dual_faults(values, a.row_to_col, d.u, d.v) == []


def test_checker_flags_non_optimal_permutation():
    values, a, _ = _solved()
    worse = a.row_to_col.copy()
    worse[[0, 1]] = worse[[1, 0]]
    cost = checks.cost_of(values, worse)
    faults = checks.assignment_faults(values, worse, cost, checks.optimum(values))
    assert faults == ["not-optimal"]


def test_checker_flags_non_permutation():
    values, a, _ = _solved()
    dup = a.row_to_col.copy()
    dup[0] = dup[1]
    best = checks.optimum(values)
    assert checks.assignment_faults(values, dup, a.total_cost, best) == ["not-a-permutation"]
    assert checks.assignment_faults(values, dup[:-1], a.total_cost, best) == ["not-a-permutation"]


def test_checker_flags_one_infeasible_dual_entry():
    values, a, d = _solved()
    v = d.v.copy()
    j = int(a.row_to_col[3])
    v[j] += 1e-6
    assert "infeasible-dual" in checks.dual_faults(values, a.row_to_col, d.u, v)


def test_checker_flags_slack_assigned_edge():
    values, a, d = _solved()
    u = d.u.copy()
    u[2] -= 1e-6
    assert checks.dual_faults(values, a.row_to_col, u, d.v) == ["slack-assigned-edge"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_bit_identical_instances(name):
    w = workloads.WORKLOADS[name]
    first = workloads.eval_instances(w, seed=7)
    second = workloads.eval_instances(w, seed=7)
    assert len(first) == len(second) == w.instances
    for a, b in zip(first, second):
        assert a.values.tobytes() == b.values.tobytes()
    other = workloads.eval_instances(w, seed=8)
    assert first[0].values.tobytes() != other[0].values.tobytes()


def test_self_time_subtracts_covered_part_of_children():
    recs = [
        {"id": 0, "parent": None, "start": 0, "end": 100},
        {"id": 1, "parent": 0, "start": 10, "end": 30},
        {"id": 2, "parent": 0, "start": 30, "end": 50},
        {"id": 3, "parent": 0, "start": 70, "end": 80},
        {"id": 4, "parent": 3, "start": 72, "end": 75},
    ]
    assert spans.self_times(recs) == [100 - 20 - 20 - 10, 20, 20, 10 - 3, 3]


def test_tracer_records_nested_spans_and_restores_functions():
    tracer = spans.Tracer()
    original = lap_core.solve_cold
    c = datagen.gen_dense(8, 1)
    tracer.request = "r"
    model = rowdualnet.init_model(warmstart.FEATURE_DIM, hidden_dim=8, num_blocks=1)
    with tracer.installed(), tracer.span("root"):
        warmstart.warm_solve(c, model, warmstart.PipelineConfig(tau=1.0))
    assert lap_core.solve_cold is original
    names = {s["name"]: s for s in tracer.spans}
    assert {"root", "warmstart.warm_solve", "warmstart.extract_features",
            "rowdualnet.forward", "lap_core.solve_seeded"} <= set(names)
    assert names["warmstart.warm_solve"]["parent"] == names["root"]["id"]
    assert names["rowdualnet.forward"]["parent"] == names["warmstart.warm_solve"]["id"]
