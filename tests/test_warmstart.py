"""Feature extraction, min-trick completion, density gate, pipeline tests."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualseed import baselines, warmstart
from dualseed.datagen import BlockParams, gen_block, gen_dense
from dualseed.errors import NonFinite, ShapeMismatch
from dualseed.lap_core import CostMatrix, DualPotentials, reduced_costs, solve_cold
from dualseed.warmstart import (
    FEATURE_NAMES,
    STAGE_NAMES,
    FeatureMatrix,
    PipelineConfig,
    equality_density,
    extract_features,
    min_trick,
    run_pipeline,
    warm_solve,
)

F = {name: i for i, name in enumerate(FEATURE_NAMES)}


def _raw_features(values, **cfg_kwargs):
    c = CostMatrix.from_array(np.asarray(values, dtype=np.float64))
    return extract_features(c, PipelineConfig(**cfg_kwargs), normalize=False)


# ------------------------------------------------------------------ features

def test_feature_names_cover_all_21():
    assert len(FEATURE_NAMES) == 21
    assert FEATURE_NAMES[:4] == ("row_min", "row_max", "row_mean", "row_std")
    assert FEATURE_NAMES[13:] == tuple(f"pe_{i}" for i in range(8))


def test_row_statistics_hand_computed():
    feats = _raw_features([[1, 2, 3, 4], [4, 3, 2, 1], [2, 2, 2, 2], [1, 1, 4, 4]])
    row = feats.values[0]
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
    row = feats.values[0]
    assert row[F["row_std"]] == 0.0
    assert row[F["entropy"]] == pytest.approx(np.log(3.0), abs=1e-12)
    assert row[F["near_best"]] == 1.0


def test_is_col_best_2x2():
    feats = _raw_features([[0, 1], [1, 0]])
    assert feats.values[0, F["is_col_best"]] == 0.5
    assert feats.values[1, F["is_col_best"]] == 0.5


@pytest.mark.parametrize("levels", [1, 2, 3, 50])
def test_rank_features_tie_heavy_match_stable_argsort(levels):
    """Column ranks break ties toward the lower row index, as a stable sort does."""
    rng = np.random.default_rng(levels)
    n = 200  # more than one block of columns
    values = rng.integers(0, levels, (n, n)).astype(np.float64)
    feats = _raw_features(values).values

    order = np.argsort(values, axis=0, kind="stable")
    ranks = np.empty((n, n), dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(n, dtype=np.int64)[:, None], axis=0)
    rank_mean_raw = ranks.sum(axis=1) / n
    rank_var = (ranks * ranks).sum(axis=1) / n - rank_mean_raw**2
    assert np.array_equal(feats[:, F["rank_mean"]], rank_mean_raw / (n - 1))
    assert np.array_equal(feats[:, F["rank_std"]], np.sqrt(np.maximum(rank_var, 0.0)))
    assert np.array_equal(feats[:, F["norm_rank"]], 1.0 - rank_mean_raw / (n - 1))
    col_best = np.bincount(np.argmin(values, axis=0), minlength=n) / n
    assert np.array_equal(feats[:, F["is_col_best"]], col_best)


def test_block_size_leaves_features_bit_identical(monkeypatch):
    rng = np.random.default_rng(6)
    for values in (rng.random((37, 37)), rng.integers(0, 3, (37, 37)).astype(np.float64)):
        c = CostMatrix.from_array(values)
        feats = extract_features(c, PipelineConfig()).values
        for entries in (1, 37 * 5, 37 * 37):
            monkeypatch.setattr(warmstart, "BLOCK_ENTRIES", entries)
            assert np.array_equal(extract_features(c, PipelineConfig()).values, feats)


@pytest.mark.parametrize("kind", ["levels", "signed-zero", "dense"])
def test_column_order_is_the_stable_argsort(kind):
    rng = np.random.default_rng(17)
    for n in (1, 2, 5, 64):
        if kind == "levels":
            values = rng.integers(0, 3, (n, n)).astype(np.float64)
        elif kind == "signed-zero":
            values = rng.choice(np.array([-0.0, 0.0, 1.0]), size=(n, n))
        else:
            values = rng.random((n, n))
        expected = np.argsort(values, axis=0, kind="stable").T
        assert np.array_equal(warmstart._column_order(values), expected)


def _sha(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _golden_instance(name):
    if name == "block-256":
        return gen_block(BlockParams(n=256, seed=777))
    return gen_dense(int(name.split("-")[1]), seed=777)


# Bytes of the normalised 21-column features, pinned: a change that moves
# them changes what every model reads, not only how fast it is computed.
# Recorded with numpy 2.4 on x86-64; exp and log may round differently on
# another numpy build or CPU.
GOLDEN_FEATURES = {
    "dense-128": "0bbe08bd5da2cff8a42f9208a192ec9e98b7c6765321157cba630a20f7b95a85",
    "block-256": "301fb900c7c4aba6a5ef19bff9e8070e452a54c5fcb2f95f14afdf842b07990a",
    "levels-1": "22ba2fec54f8b72cf3707c0baca9c58ec060a8466026e2a584284f61b08d4409",
    "levels-2": "e67844fdcae1016712670a12cc1e0615a330f546acbb7864a8883bb12ce9e742",
    "levels-3": "9355c3e5d6ccb5ad459eb91ea49e577b772f0c61447479c1c7adb5198ec2e0d5",
    "levels-50": "3b0e1dbc0c9e0fca3c0f70449060bc68c2c67f6c2e693612e536a712d2d72aac",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FEATURES))
def test_features_golden_bytes(name):
    if name.startswith("levels"):
        # the tie-heavy matrices of test_rank_features_tie_heavy_match_stable_argsort
        levels = int(name.split("-")[1])
        rng = np.random.default_rng(levels)
        c = CostMatrix.from_array(rng.integers(0, levels, (200, 200)).astype(np.float64))
    else:
        c = _golden_instance(name)
    assert _sha(extract_features(c, PipelineConfig()).values) == GOLDEN_FEATURES[name]


def test_entropy_bounds_and_order_stats():
    rng = np.random.default_rng(0)
    c = CostMatrix.from_array(rng.random((12, 12)))
    feats = extract_features(c, PipelineConfig(), normalize=False).values
    assert (feats[:, F["entropy"]] >= 0).all()
    assert (feats[:, F["entropy"]] <= np.log(12) + 1e-12).all()
    assert (feats[:, F["row_min"]] <= feats[:, F["row_mean"]]).all()
    assert (feats[:, F["row_mean"]] <= feats[:, F["row_max"]]).all()
    assert (feats[:, F["row_std"]] >= 0).all()
    assert (feats[:, F["near_best"]] > 0).all()
    assert (feats[:, F["near_best"]] <= 1).all()
    assert (feats[:, F["is_col_best"]] >= 0).all()
    assert np.isfinite(feats).all()


def test_positional_encodings_formula():
    rng = np.random.default_rng(1)
    n = 9
    c = CostMatrix.from_array(rng.random((n, n)))
    feats = extract_features(c, PipelineConfig()).values
    i = np.arange(n) / n
    for m, f in enumerate((1, 2, 4, 8)):
        assert np.allclose(feats[:, 13 + 2 * m], np.sin(2 * np.pi * f * i), atol=1e-12)
        assert np.allclose(feats[:, 13 + 2 * m + 1], np.cos(2 * np.pi * f * i), atol=1e-12)


def test_zscore_normalization():
    rng = np.random.default_rng(2)
    c = CostMatrix.from_array(rng.random((30, 30)))
    feats = extract_features(c, PipelineConfig()).values
    block = feats[:, :13]
    assert np.allclose(block.mean(axis=0), 0.0, atol=1e-9)
    stds = block.std(axis=0)
    assert ((np.isclose(stds, 1.0, atol=1e-6)) | (stds < 1e-6)).all()


def test_reduced_dims_are_prefixes():
    rng = np.random.default_rng(3)
    c = CostMatrix.from_array(rng.random((8, 8)))
    full = extract_features(c, PipelineConfig(feature_dim=21)).values
    for d in (4, 13):
        part = extract_features(c, PipelineConfig(feature_dim=d)).values
        assert part.shape == (8, d)
        assert np.array_equal(part, full[:, :d])


def test_column_permutation_invariance_bit_exact():
    rng = np.random.default_rng(4)
    c = CostMatrix.from_array(rng.random((17, 17)))
    feats = extract_features(c, PipelineConfig()).values
    for _ in range(5):
        perm = rng.permutation(17)
        permuted = CostMatrix.from_array(c.values[:, perm])
        feats_p = extract_features(permuted, PipelineConfig()).values
        assert np.array_equal(feats, feats_p)


def test_features_require_n_at_least_2():
    with pytest.raises(ShapeMismatch):
        extract_features(CostMatrix.from_array(np.array([[1.0]])), PipelineConfig())


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(eps=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(tau=-0.1)
    with pytest.raises(ValueError):
        PipelineConfig(feature_dim=7)
    with pytest.raises(ValueError):
        PipelineConfig(refine_k=0)


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
    model = init_model(21, hidden_dim=8, seed=0)
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
    model = init_model(13, hidden_dim=8, seed=0)
    with pytest.raises(ShapeMismatch):
        warm_solve(c, model, PipelineConfig(feature_dim=21))


def test_warm_solve_runs_end_to_end():
    from dualseed.rowdualnet import init_model

    rng = np.random.default_rng(14)
    c = CostMatrix.from_array(rng.random((10, 10)))
    a_cold, _, _ = solve_cold(c)
    model = init_model(21, hidden_dim=8, seed=0)
    assignment, report = warm_solve(c, model, PipelineConfig())
    assert assignment.total_cost == pytest.approx(a_cold.total_cost, abs=1e-12)
    assert report.total_cost == assignment.total_cost
