"""Benchmark harness: spec parsing, experiment grids, statistics, sweeps."""

import dataclasses

import numpy as np
import pytest

from dualseed.bench import (
    ALL_STRATEGIES,
    BREAKDOWN_HEADER,
    SUMMARY_HEADER,
    ExperimentSpec,
    RunRecord,
    SummaryRow,
    axis_csv,
    breakdown_csv,
    breakdown_table,
    noise_csv,
    parse_spec,
    permutation_csv,
    read_records,
    run_experiment,
    summarize,
    summary_csv,
    sweep_noise,
    sweep_permutation,
    sweep_sparsity,
    write_records,
)
from dualseed.errors import InsufficientTrials
from dualseed.warmstart import PipelineConfig


# ---------------------------------------------------------------- spec files

def test_parse_spec_roundtrip():
    text = """
    # comment line
    generator = dense
    sizes = 16,32
    trials = 4          # trailing comment
    strategies = cold, random
    seed = 9
    tau = 1.5
    eps = 0.001
    checkpoint = model.ckpt
    block_groups = 4
    block_noise = 0.25
    """
    spec = parse_spec(text)
    assert spec.generator == "dense"
    assert spec.sizes == (16, 32)
    assert spec.trials == 4
    assert spec.strategies == ("cold", "random")
    assert spec.seed == 9
    assert spec.pipeline.tau == 1.5
    assert spec.pipeline.eps == 0.001
    assert spec.checkpoint == "model.ckpt"
    assert spec.block_groups == 4
    assert spec.block_noise == 0.25


def test_parse_spec_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_spec("generator = dense\nwidgets = 3\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_spec("generator dense\n")


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(strategies=())
    with pytest.raises(ValueError):
        ExperimentSpec(strategies=("warpdrive",))
    with pytest.raises(ValueError):
        ExperimentSpec(generator="urandom")
    assert ExperimentSpec(generator="file:/tmp/x.lapm").generator.startswith("file:")


# ---------------------------------------------------------------- experiment

def _small_spec(**kwargs):
    defaults = dict(
        generator="dense",
        sizes=(12,),
        trials=3,
        strategies=("cold", "row_mean", "row_min", "random", "optimal_oracle"),
        seed=4,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def test_run_experiment_exactness_and_oracle():
    records = run_experiment(_small_spec())
    assert len(records) == 5 * 3
    assert all(r.error is None for r in records)
    for trial in range(3):
        costs = {r.total_cost for r in records if r.trial == trial}
        assert len(costs) == 1  # every strategy agrees on the optimum
    for r in records:
        if r.strategy == "optimal_oracle":
            assert r.dual_update_steps == 0
            assert r.greedy_match_rate > 0.5


def test_run_experiment_deterministic_non_timing_fields():
    spec = _small_spec(strategies=("cold", "random"))
    a = run_experiment(spec)
    b = run_experiment(spec)
    skip = {"wall_ns", "features_ns", "model_ns", "min_trick_ns", "fallback_check_ns", "solver_ns"}
    for ra, rb in zip(a, b):
        da, db = dataclasses.asdict(ra), dataclasses.asdict(rb)
        for key in da:
            if key not in skip:
                assert da[key] == db[key], key


def test_records_jsonl_roundtrip(tmp_path):
    spec = _small_spec(strategies=("cold", "row_mean"))
    records = run_experiment(spec)
    path = str(tmp_path / "records.jsonl")
    write_records(path, records, spec)
    back = read_records(path)
    assert len(back) == len(records)
    for ra, rb in zip(records, back):
        assert dataclasses.asdict(ra) == dataclasses.asdict(rb)
    first = open(path).readline()
    assert '"_meta"' in first and '"warmup_runs"' in first


# ---------------------------------------------------------------- statistics

def _rec(strategy, trial, wall, n=8, aug=0, **kw):
    return RunRecord(
        strategy=strategy, n=n, trial=trial, total_cost=1.0, wall_ns=wall,
        augment_searches=aug, fallback_triggered=kw.pop("fallback", False),
        greedy_match_rate=kw.pop("match", 0.5), **kw,
    )


def test_summarize_cold_self_ratio_is_exactly_one():
    records = [_rec("cold", t, wall, aug=4) for t, wall in enumerate((120, 260, 390))]
    (row,) = summarize(records)
    assert row.mean_ratio == 1.0
    assert row.ci_lo == 1.0 and row.ci_hi == 1.0
    assert row.median_ratio == 1.0
    assert row.trials == 3


def test_summarize_hand_computed_ratio_and_ci():
    records = []
    for t, wall in enumerate((200, 400, 600)):
        records.append(_rec("cold", t, wall, aug=8))
        records.append(_rec("row_mean", t, wall // 2, aug=2))
    rows = {r.strategy: r for r in summarize(records)}
    ours = rows["row_mean"]
    assert ours.mean_ratio == 2.0
    assert ours.ci_lo == 2.0 and ours.ci_hi == 2.0  # zero variance ratios
    assert ours.median_ratio == 2.0
    assert ours.augment_reduction_vs_cold == pytest.approx(0.75, abs=1e-12)
    assert ours.fallback_rate == 0.0


def test_summarize_cv_hand_computed():
    records = [_rec("cold", t, wall) for t, wall in enumerate((1, 2, 3))]
    (row,) = summarize(records)
    # population std of {1,2,3} is sqrt(2/3); CV = std/mean = 0.408248 (6dp)
    assert row.cv == pytest.approx(np.sqrt(2.0 / 3.0) / 2.0, abs=1e-12)
    assert f"{row.cv:.6f}" == "0.408248"
    assert row.min_wall_ns == 1 and row.max_wall_ns == 3


def test_summarize_insufficient_trials():
    records = [_rec("cold", 0, 100), _rec("row_mean", 0, 50)]
    with pytest.raises(InsufficientTrials):
        summarize(records)


def test_summary_csv_schema():
    records = []
    for t, wall in enumerate((200, 400)):
        records.append(_rec("cold", t, wall, aug=8))
        records.append(_rec("random", t, wall * 2, aug=4))
    text = summary_csv(summarize(records))
    lines = text.strip().split("\n")
    assert lines[0] == SUMMARY_HEADER
    assert len(lines) == 3
    assert all(len(line.split(",")) == len(SUMMARY_HEADER.split(",")) for line in lines[1:])


def test_csv_writers_exact_text():
    summary = [
        SummaryRow("cold", 8, 3, 1.0, 1.0, 1.0, 1.0, 0.408248290463863, 1, 3, 0.5, None, None),
        SummaryRow("neural", 16, 2, 1.2345678, 0.9, 1.56789, 1.25, 0.0, 120, 260, 0.75,
                   0.3333333333, 0.5),
    ]
    assert summary_csv(summary) == (
        SUMMARY_HEADER + "\n"
        "cold,8,3,1.000000,1.000000,1.000000,1.000000,0.408248,1,3,0.500000,,\n"
        "neural,16,2,1.234568,0.900000,1.567890,1.250000,0.000000,120,260,0.750000,"
        "0.333333,0.500000\n"
    )
    stages = ("features", "model", "min_trick", "fallback_check", "solver")
    row = {"n": 16}
    for s, ms, pct in zip(stages, (1.0, 2.5, 0.125, 0.0625, 5.3125),
                          (11.7647, 29.41176, 1.4705882, 0.7352941, 62.5)):
        row[f"{s}_ms"], row[f"{s}_pct"] = ms, pct
    assert breakdown_csv([row]) == (
        BREAKDOWN_HEADER + "\n"
        "16,1.000000,11.765,2.500000,29.412,0.125000,1.471,0.062500,0.735,5.312500,62.500\n"
    )
    noise = [
        {"sigma": 0.0, "mean_rho": 1.5, "mean_dual_update_steps": 0.0},
        {"sigma": 0.05, "mean_rho": 1.0 / 3.0, "mean_dual_update_steps": 12.25},
    ]
    assert noise_csv(noise) == (
        "sigma,mean_rho,mean_dual_update_steps\n"
        "0.000000,1.500000,0.000000\n"
        "0.050000,0.333333,12.250000\n"
    )
    axis = [{"k": 4, "strategy": "neural", "n": 32, "mean_ratio": 1.1, "ci_lo": 0.95,
             "ci_hi": 1.25, "mean_greedy_match_rate": 0.71875,
             "augment_reduction_vs_cold": None, "fallback_rate": 1.0}]
    assert axis_csv("k", axis) == (
        "k,strategy,n,mean_ratio,ci_lo,ci_hi,mean_greedy_match_rate,"
        "augment_reduction_vs_cold,fallback_rate\n"
        "4,neural,32,1.100000,0.950000,1.250000,0.718750,,1.000000\n"
    )
    perm = [{"strategy": "cold", "num_perms": 4, "distinct_costs": 1, "cost": 2.123456789012,
             "mean_wall_ns": 1234.56, "wall_std_ns": 78.04}]
    assert permutation_csv(perm) == (
        "strategy,num_perms,distinct_costs,cost,mean_wall_ns,wall_std_ns\n"
        "cold,4,1,2.123456789,1234.6,78.0\n"
    )


# ----------------------------------------------------------------- breakdown

def test_breakdown_hand_computed_percentages():
    records = [
        RunRecord(
            strategy="neural", n=16, trial=t, total_cost=1.0, wall_ns=10_000_000,
            features_ns=1_000_000, model_ns=2_000_000, min_trick_ns=1_000_000,
            fallback_check_ns=1_000_000, solver_ns=5_000_000,
        )
        for t in range(3)
    ]
    (row,) = breakdown_table(records)
    assert row["n"] == 16
    assert row["features_ms"] == pytest.approx(1.0)
    assert row["solver_pct"] == pytest.approx(50.0)
    total_pct = sum(row[f"{s}_pct"] for s in ("features", "model", "min_trick", "fallback_check", "solver"))
    assert abs(total_pct - 100.0) <= 0.1
    text = breakdown_csv([row])
    assert text.splitlines()[0] == BREAKDOWN_HEADER


def test_breakdown_rejects_solver_only_records():
    cold = [
        RunRecord(strategy="cold", n=8, trial=t, total_cost=1.0, wall_ns=100, solver_ns=100)
        for t in range(2)
    ]
    with pytest.raises(ValueError):
        breakdown_table(cold)


def test_breakdown_real_percentages_sum_to_100():
    spec = _small_spec(strategies=("cold", "row_mean"), sizes=(16, 24))
    rows = breakdown_table(run_experiment(spec))
    assert [row["n"] for row in rows] == [16, 24]
    for row in rows:
        total = sum(row[f"{s}_pct"] for s in ("features", "model", "min_trick", "fallback_check", "solver"))
        assert abs(total - 100.0) <= 0.1


# -------------------------------------------------------------------- sweeps

def test_sweep_noise_zero_sigma_is_idle():
    spec = _small_spec(strategies=("cold",), sizes=(16,), trials=5)
    rows = sweep_noise(spec, [0.0, 0.3])
    assert [r["sigma"] for r in rows] == [0.0, 0.3]
    assert rows[0]["mean_rho"] >= 1.0
    assert rows[0]["mean_dual_update_steps"] == 0.0
    assert rows[1]["mean_rho"] <= rows[0]["mean_rho"]
    assert rows[1]["mean_dual_update_steps"] >= rows[0]["mean_dual_update_steps"]
    text = noise_csv(rows)
    assert text.splitlines()[0] == "sigma,mean_rho,mean_dual_update_steps"
    assert len(text.strip().splitlines()) == 3


def test_sweep_sparsity_zero_fraction_matches_plain_run():
    spec = _small_spec(strategies=("cold", "row_mean"), sizes=(12,), trials=2)
    rows = sweep_sparsity(spec, [0.0, 0.4])
    assert {r["mask_fraction"] for r in rows} == {0.0, 0.4}
    plain = summarize(run_experiment(spec))
    plain_match = {(r.strategy, r.n): r.mean_greedy_match_rate for r in plain}
    for r in rows:
        if r["mask_fraction"] == 0.0:
            # non-timing statistics agree with the un-sparsified experiment
            assert r["mean_greedy_match_rate"] == plain_match[(r["strategy"], r["n"])]


def test_sweep_permutation_costs_identical():
    spec = _small_spec(strategies=("cold", "row_mean"), sizes=(16,), trials=2)
    rows = sweep_permutation(spec, num_perms=4)
    assert {r["strategy"] for r in rows} == {"cold", "row_mean"}
    for r in rows:
        assert r["distinct_costs"] == 1
        assert r["wall_std_ns"] >= 0.0
