"""Feature extraction, min-trick completion, density gate, pipeline tests."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualseed import baselines, lap_core, warmstart
from dualseed.datagen import BlockParams, gen_block, gen_dense
from dualseed.errors import NonFinite, ShapeMismatch
from dualseed.lap_core import CostMatrix, DualPotentials, column_minima, reduced_costs, solve_cold
from dualseed.warmstart import (
    FEATURE_DIM,
    FEATURE_NAMES,
    STAGE_NAMES,
    PipelineConfig,
    equality_density,
    extract_features,
    min_trick,
    run_pipeline,
    warm_solve,
)

F = {name: i for i, name in enumerate(FEATURE_NAMES)}


def _raw_features(values):
    c = CostMatrix.from_array(np.asarray(values, dtype=np.float64))
    return extract_features(c, normalize=False)


def _tie_heavy(kind, n=200):
    """n x n costs drawn from `kind` integer levels, or from {-0.0, 0.0, 1.0}."""
    rng = np.random.default_rng(99 if kind == "signed-zero" else kind)
    if kind == "signed-zero":
        return rng.choice(np.array([-0.0, 0.0, 1.0]), size=(n, n))
    return rng.integers(0, kind, (n, n)).astype(np.float64)


# ------------------------------------------------------------------ features

def test_feature_names_cover_all_10():
    assert FEATURE_NAMES == (
        "row_min", "row_max", "row_mean", "row_std", "entropy", "difficulty",
        "near_best", "is_col_best", "k_mean", "k_std",
    )
    assert FEATURE_DIM == len(FEATURE_NAMES) == 10


def test_row_statistics_hand_computed():
    feats = _raw_features([[1, 2, 3, 4], [4, 3, 2, 1], [2, 2, 2, 2], [1, 1, 4, 4]])
    row = feats[0]
    assert row[F["row_min"]] == 1.0
    assert row[F["row_max"]] == 4.0
    assert row[F["row_mean"]] == 2.5
    assert row[F["row_std"]] == pytest.approx(1.11803, abs=1e-5)
    # sorted gaps [1,1,1] -> difficulty 1/(1 + 1e-12)
    assert row[F["difficulty"]] == pytest.approx(1.0, abs=1e-9)
    # threshold 1.1*1: only the 1 qualifies
    assert row[F["near_best"]] == 0.25


def test_constant_row_features():
    feats = _raw_features([[5, 5, 5], [1, 2, 3], [3, 1, 2]])
    row = feats[0]
    assert row[F["row_std"]] == 0.0
    assert row[F["entropy"]] == pytest.approx(np.log(3.0), abs=1e-12)
    assert row[F["near_best"]] == 1.0


def test_is_col_best_2x2():
    feats = _raw_features([[0, 1], [1, 0]])
    assert feats[0, F["is_col_best"]] == 0.5
    assert feats[1, F["is_col_best"]] == 0.5


@pytest.mark.parametrize("levels", [1, 2, 3, 50, "signed-zero"])
def test_rank_features_tie_heavy_match_stable_argsort(levels):
    """is_col_best credits each column to the row a stable sort ranks first:
    the lowest row attaining the minimum, -0.0 and 0.0 counting as equal."""
    values = _tie_heavy(levels)  # more than one block of rows
    n = values.shape[0]
    first = np.argsort(values, axis=0, kind="stable")[0]
    col_best = np.bincount(first, minlength=n) / n
    assert np.array_equal(_raw_features(values)[:, F["is_col_best"]], col_best)


def test_block_size_leaves_features_bit_identical(monkeypatch):
    rng = np.random.default_rng(6)
    for values in (rng.random((37, 37)), rng.integers(0, 3, (37, 37)).astype(np.float64)):
        c = CostMatrix.from_array(values)
        feats = extract_features(c)
        for entries in (1, 37 * 5, 37 * 37):
            monkeypatch.setattr(warmstart, "BLOCK_ENTRIES", entries)
            monkeypatch.setattr(lap_core, "BLOCK_ENTRIES", entries)
            assert np.array_equal(extract_features(c), feats)


@pytest.mark.parametrize("kind", ["levels", "signed-zero", "dense"])
def test_column_order_is_the_stable_argsort(kind):
    """The one entry of each column's stable order that the features read,
    its first row, is the zero-u argmin pass's row."""
    rng = np.random.default_rng(17)
    for n in (1, 2, 5, 64):
        if kind == "levels":
            values = rng.integers(0, 3, (n, n)).astype(np.float64)
        elif kind == "signed-zero":
            values = rng.choice(np.array([-0.0, 0.0, 1.0]), size=(n, n))
        else:
            values = rng.random((n, n))
        expected = np.argsort(values, axis=0, kind="stable")[0]
        assert np.array_equal(column_minima(values, None, argmins=True)[1], expected)


def _sha(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _golden_instance(name):
    if name == "block-256":
        return gen_block(BlockParams(n=256, seed=777))
    return gen_dense(int(name.split("-")[1]), seed=777)


# Bytes of the normalised 10-column features, pinned: a change that moves
# them changes what every model reads, not only how fast it is computed.
# Recorded with numpy 2.4 on x86-64; exp and log may round differently on
# another numpy build or CPU.
GOLDEN_FEATURES = {
    "dense-128": "7bceaa64e27570dceecf8136a818ef2a275fd039e3b8340507bd542978221044",
    "block-256": "7ac121d8acc944d9d38e8122ff0d54fe2b2f4b24c20d061e9d99a78a40d9dd86",
    "levels-1": "215751eb5941b42e662604f27bd21d1a45b48ca2ee3b4e8740a7dc5c7c1f23ad",
    "levels-2": "606ab503cbcd4a8fc9fd034312383d5381cbc9e4f780cc60507532265dc2e7a6",
    "levels-3": "7e85659fa0f5664592339805855c95753081993a94525aff2ecda36ade65db54",
    "levels-50": "babd2e8faae0b1806ed4e21fb2da82a29d475cdf88a59e8c56fdb5671b3a0f07",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FEATURES))
def test_features_golden_bytes(name):
    if name.startswith("levels"):
        # the tie-heavy matrices of test_rank_features_tie_heavy_match_stable_argsort
        c = CostMatrix.from_array(_tie_heavy(int(name.split("-")[1])))
    else:
        c = _golden_instance(name)
    assert _sha(extract_features(c)) == GOLDEN_FEATURES[name]


def test_entropy_bounds_and_order_stats():
    rng = np.random.default_rng(0)
    c = CostMatrix.from_array(rng.random((12, 12)))
    feats = extract_features(c, normalize=False)
    assert (feats[:, F["entropy"]] >= 0).all()
    assert (feats[:, F["entropy"]] <= np.log(12) + 1e-12).all()
    assert (feats[:, F["row_min"]] <= feats[:, F["row_mean"]]).all()
    assert (feats[:, F["row_mean"]] <= feats[:, F["row_max"]]).all()
    assert (feats[:, F["row_std"]] >= 0).all()
    assert (feats[:, F["near_best"]] > 0).all()
    assert (feats[:, F["near_best"]] <= 1).all()
    assert (feats[:, F["is_col_best"]] >= 0).all()
    assert np.isfinite(feats).all()


def test_zscore_normalization():
    rng = np.random.default_rng(2)
    c = CostMatrix.from_array(rng.random((30, 30)))
    feats = extract_features(c)
    assert feats.shape == (30, FEATURE_DIM)
    assert np.allclose(feats.mean(axis=0), 0.0, atol=1e-9)
    stds = feats.std(axis=0)
    assert ((np.isclose(stds, 1.0, atol=1e-6)) | (stds < 1e-6)).all()


def test_column_permutation_invariance_bit_exact():
    rng = np.random.default_rng(4)
    c = CostMatrix.from_array(rng.random((17, 17)))
    feats = extract_features(c)
    for _ in range(5):
        perm = rng.permutation(17)
        permuted = CostMatrix.from_array(c.values[:, perm])
        feats_p = extract_features(permuted)
        assert np.array_equal(feats, feats_p)


def test_features_require_n_at_least_2():
    with pytest.raises(ShapeMismatch):
        extract_features(CostMatrix.from_array(np.array([[1.0]])))


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(eps=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(tau=-0.1)


# ----------------------------------------------------------------- min_trick

def test_min_trick_column_minima():
    c = CostMatrix.from_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
    d = min_trick(c, np.array([0.0, 0.0]))
    assert np.array_equal(d.v, np.array([1.0, 2.0]))


def test_min_trick_fully_tight():
    c = CostMatrix.from_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
    d = min_trick(c, np.array([1.0, 3.0]))
    assert np.array_equal(d.v, np.array([0.0, 1.0]))
    r = reduced_costs(c.values, d.u, d.v)
    assert np.array_equal(r, np.zeros((2, 2)))


def test_min_trick_optimal_dual_objective():
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = CostMatrix.from_array(rng.random((16, 16)))
        a, duals, _ = solve_cold(c)
        shift = duals.u.mean()
        u_star = duals.u - shift
        d = min_trick(c, u_star)
        assert d.u.sum() + d.v.sum() == pytest.approx(a.total_cost, abs=1e-9)


def test_min_trick_validates_input():
    c = CostMatrix.from_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ShapeMismatch):
        min_trick(c, np.zeros(3))
    with pytest.raises(NonFinite):
        min_trick(c, np.array([np.nan, 0.0]))


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_property_min_trick_always_feasible(data):
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    n = data.draw(st.integers(min_value=1, max_value=12))
    scale = data.draw(st.sampled_from([1.0, 1e-6, 1e6]))
    rng = np.random.default_rng(seed)
    c = CostMatrix.from_array(rng.random((n, n)) * scale)
    u_hat = rng.normal(0.0, scale, n)
    d = min_trick(c, u_hat)
    r = reduced_costs(c.values, d.u, d.v)
    assert r.min() >= 0.0 or r.min() >= -0.0  # exact in floating point


def test_min_trick_feasibility_fuzz_1000():
    rng = np.random.default_rng(6)
    violations = 0
    for trial in range(1000):
        n = int(rng.integers(1, 24))
        c = CostMatrix.from_array(rng.random((n, n)) * (10.0 ** rng.integers(-3, 4)))
        u_hat = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), n)
        d = min_trick(c, u_hat)
        if reduced_costs(c.values, d.u, d.v).min() < 0:
            violations += 1
    assert violations == 0


# ---------------------------------------------------------- equality density

def test_density_fully_tight_is_2():
    c = CostMatrix.from_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
    d = min_trick(c, np.array([1.0, 3.0]))
    assert equality_density(c, d, 1e-5) == 2.0


def test_density_column_minima_is_1():
    c = CostMatrix.from_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
    d = min_trick(c, np.array([0.0, 0.0]))
    assert equality_density(c, d, 1e-5) == 1.0


def test_density_at_least_1_for_optimal_duals():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = CostMatrix.from_array(rng.random((24, 24)))
        _, duals, _ = solve_cold(c)
        assert equality_density(c, duals, 1e-5) >= 1.0


def test_gauge_shift_preserves_equality_edges():
    rng = np.random.default_rng(8)
    c = CostMatrix.from_array(rng.random((15, 15)))
    u_hat = rng.normal(0.0, 0.5, 15)
    d0 = min_trick(c, u_hat)
    edges0 = np.abs(reduced_costs(c.values, d0.u, d0.v)) < 1e-9
    for shift in (-3.0, 0.25, 10.0):
        d1 = min_trick(c, u_hat + shift)
        edges1 = np.abs(reduced_costs(c.values, d1.u, d1.v)) < 1e-9
        assert np.array_equal(edges0, edges1)


# ------------------------------------------------------------------ pipeline

def test_pipeline_constant_predictor_exact():
    rng = np.random.default_rng(9)
    c = CostMatrix.from_array(rng.random((20, 20)))
    a_cold, _, _ = solve_cold(c)
    cfg = PipelineConfig()
    assignment, report = run_pipeline(
        c, lambda feats: np.zeros(20), cfg, needs_features=False
    )
    assert assignment.total_cost == pytest.approx(a_cold.total_cost, abs=1e-12)
    assert set(report.stage_times) == set(STAGE_NAMES)
    assert all(ns >= 0 for ns in report.stage_times.values())


def test_pipeline_integer_costs_bit_exact():
    rng = np.random.default_rng(10)
    c = CostMatrix.from_array(rng.integers(0, 50, size=(18, 18)).astype(np.float64))
    a_cold, _, _ = solve_cold(c)
    for trial in range(10):
        u_hat = rng.normal(0.0, 5.0, 18)
        assignment, _ = run_pipeline(c, lambda feats: u_hat, PipelineConfig(), needs_features=False)
        assert assignment.total_cost == a_cold.total_cost  # bit-for-bit


def test_pipeline_gate_saturation():
    rng = np.random.default_rng(11)
    c = CostMatrix.from_array(rng.random((16, 16)))
    _, duals, _ = solve_cold(c)
    cfg = PipelineConfig(tau=float("inf"))
    assignment, report = run_pipeline(c, lambda feats: duals.u, cfg, needs_features=False)
    assert report.fallback_triggered
    a_cold, _, _ = solve_cold(c)
    assert assignment.total_cost == pytest.approx(a_cold.total_cost, abs=1e-12)
    assert report.stage_times["solver"] > 0


def test_pipeline_gate_open_with_oracle_seed():
    rng = np.random.default_rng(12)
    c = CostMatrix.from_array(rng.random((16, 16)))
    _, duals, _ = solve_cold(c)
    cfg = PipelineConfig(tau=1.0)
    assignment, report = run_pipeline(c, lambda feats: duals.u, cfg, needs_features=False)
    assert not report.fallback_triggered
    assert report.density_rho >= 1.0
    assert report.solve_stats.dual_update_steps == 0


@pytest.mark.parametrize("tau", [1.2, 0.0])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pipeline_rejects_non_finite_prediction(bad, tau):
    # Whether or not the gate would consume the seed, a non-finite row
    # potential is an error, not a silent fallback with a meaningless rho.
    c = CostMatrix.from_array(np.random.default_rng(15).random((16, 16)))
    u_hat = np.zeros(16)
    u_hat[3] = bad
    with pytest.raises(NonFinite):
        run_pipeline(c, lambda feats: u_hat, PipelineConfig(tau=tau), needs_features=False)


# (instance, predictor, tau) -> (rho as float.hex, fallback, greedy_matched,
# augment_searches, dual_update_steps, scanned_columns, sha256 of row_to_col).
# "normal" falls back at tau 1.2 and is consumed at tau 1.0; "row_min" passes
# the gate with rho > 1.
GOLDEN_PIPELINE = {
    ("dense-128", "normal", 1.2): ("0x1.0000000000000p+0", True, 82, 46, 46, 430,
        "994b4d69c5db58cf0df07c4dfee1dd40ad3053d43f558cbc7afde8162cbde26a"),
    ("dense-128", "normal", 1.0): ("0x1.0000000000000p+0", False, 12, 116, 116, 4040,
        "994b4d69c5db58cf0df07c4dfee1dd40ad3053d43f558cbc7afde8162cbde26a"),
    ("dense-128", "row_min", 1.2): ("0x1.5e00000000000p+0", False, 95, 33, 30, 603,
        "994b4d69c5db58cf0df07c4dfee1dd40ad3053d43f558cbc7afde8162cbde26a"),
    ("block-256", "normal", 1.2): ("0x1.0000000000000p+0", True, 58, 198, 0, 600,
        "954fde2994b247220b49b35a20f1e0aa283dadb3b190df8248db559275e62af5"),
    ("block-256", "normal", 1.0): ("0x1.0000000000000p+0", False, 45, 211, 211, 10630,
        "565a26d7b6f82f04c948bab9208ed5b9145a82f8671362d4a4eb19e7f2100c46"),
    ("block-256", "row_min", 1.2): ("0x1.73c0000000000p+3", False, 58, 198, 0, 600,
        "954fde2994b247220b49b35a20f1e0aa283dadb3b190df8248db559275e62af5"),
    ("dense-1024", "normal", 1.2): ("0x1.0000000000000p+0", True, 636, 388, 388, 14572,
        "00f8c012bbb1d881469e2a85558b9d7e322d598ee03a409ba7a364f40aba7569"),
    ("dense-1024", "normal", 1.0): ("0x1.0000000000000p+0", False, 31, 993, 993, 371541,
        "00f8c012bbb1d881469e2a85558b9d7e322d598ee03a409ba7a364f40aba7569"),
    ("dense-1024", "row_min", 1.2): ("0x1.6080000000000p+0", False, 760, 264, 223, 15840,
        "00f8c012bbb1d881469e2a85558b9d7e322d598ee03a409ba7a364f40aba7569"),
}


@pytest.mark.parametrize("name,predictor,tau", sorted(GOLDEN_PIPELINE))
def test_pipeline_golden_outputs(name, predictor, tau):
    c = _golden_instance(name)
    if predictor == "normal":
        u_hat = np.random.default_rng(31).normal(0.0, 0.3, c.n)
    else:
        u_hat = baselines.seed_row_min(c)
    a, report = run_pipeline(c, lambda feats: u_hat, PipelineConfig(tau=tau), needs_features=False)
    s = report.solve_stats
    got = (report.density_rho.hex(), report.fallback_triggered, s.greedy_matched,
           s.augment_searches, s.dual_update_steps, s.scanned_columns, _sha(a.row_to_col))
    assert got == GOLDEN_PIPELINE[(name, predictor, tau)]


@pytest.mark.parametrize("tau", [1.2, 1.0])
def test_pipeline_builds_no_n_squared_temporary(tau):
    """Features, model, completion, gate and solve stay within 0.25 C of
    allocation above C itself, whichever way the gate decides."""
    from dualseed.rowdualnet import forward, init_model

    c = gen_dense(1024, seed=3)
    model = init_model(FEATURE_DIM, hidden_dim=8, seed=0)
    cfg = PipelineConfig(tau=tau)

    def pipeline():
        return run_pipeline(c, lambda feats: forward(model, feats, c), cfg)

    assert pipeline()[1].fallback_triggered == (tau > 1.0)
    tracemalloc.start()  # after a first run, which allocates once-only state
    try:
        base = tracemalloc.get_traced_memory()[0]
        pipeline()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * c.values.nbytes


def test_warm_solve_checks_model_dim():
    from dualseed.rowdualnet import init_model

    rng = np.random.default_rng(13)
    c = CostMatrix.from_array(rng.random((6, 6)))
    model = init_model(FEATURE_DIM + 3, hidden_dim=8, seed=0)
    with pytest.raises(ShapeMismatch):
        warm_solve(c, model, PipelineConfig())


def test_warm_solve_runs_end_to_end():
    from dualseed.rowdualnet import init_model

    rng = np.random.default_rng(14)
    c = CostMatrix.from_array(rng.random((10, 10)))
    a_cold, _, _ = solve_cold(c)
    model = init_model(FEATURE_DIM, hidden_dim=8, seed=0)
    assignment, report = warm_solve(c, model, PipelineConfig())
    assert assignment.total_cost == pytest.approx(a_cold.total_cost, abs=1e-12)
    assert report.total_cost == assignment.total_cost
