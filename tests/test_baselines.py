"""Competing seed strategies: heuristics, linreg, learned median, subgradient."""

import statistics

import numpy as np
import pytest

from dualseed.baselines import (
    SUBGRADIENT_STEPS,
    LinregWeights,
    dual_objective,
    seed_learned_median,
    seed_linreg,
    seed_random,
    seed_row_mean,
    seed_row_min,
    seed_subgradient,
    train_linreg,
)
from dualseed.datagen import LabeledInstance, gen_dense, gen_labels
from dualseed.errors import ShapeMismatch, SingularSystem
from dualseed.lap_core import CostMatrix, solve_cold, solve_seeded
from dualseed.warmstart import FEATURE_DIM, PipelineConfig, equality_density, min_trick


# ----------------------------------------------------------------- row mean

def test_row_mean_hand_computed():
    c = CostMatrix.from_array(np.array([[1.0, 2.0, 3.0], [6.0, 6.0, 6.0], [0.0, 0.0, 3.0]]))
    assert np.array_equal(seed_row_mean(c), np.array([2.0, 6.0, 1.0]))


def test_row_mean_constant_matrix_fully_tight():
    c = CostMatrix.from_array(np.full((5, 5), 3.3))
    u_hat = seed_row_mean(c)
    assert np.array_equal(u_hat, np.full(5, 3.3))
    d = min_trick(c, u_hat)
    assert equality_density(c, d, 1e-5) == 5.0  # every edge tight: rho = n


def test_row_mean_1x1():
    c = CostMatrix.from_array(np.array([[4.2]]))
    assert np.array_equal(seed_row_mean(c), np.array([4.2]))


# ------------------------------------------------------------------ row min

def test_row_min_hand_computed():
    c = CostMatrix.from_array(np.array([[3.0, 1.0, 2.0], [6.0, 6.0, 6.0], [-1.0, 0.0, 5.0]]))
    u_hat = seed_row_min(c)
    assert np.array_equal(u_hat, np.array([1.0, 6.0, -1.0]))
    # every row keeps a zero reduced cost at its minimum, so the completion
    # gives v = 0 wherever a column holds some row's minimum
    d = min_trick(c, u_hat)
    assert np.array_equal(d.v, np.array([0.0, 0.0, 0.0]))


# ------------------------------------------------------------------- random

def test_random_seed_deterministic_and_in_range():
    c = gen_dense(32, seed=40)
    a = seed_random(c, seed=1)
    b = seed_random(c, seed=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, seed_random(c, seed=2))
    assert (a >= 0.0).all() and (a < 1.0).all()
    assert a.shape == (32,)


# ------------------------------------------------------------------- linreg

def _affine_dataset(w, b, m=8, n=12, seed=41):
    dataset = []
    for i in range(m):
        inst = gen_labels(gen_dense(n, seed=seed, stream_index=i))
        fake_u = inst.features @ w + b
        dataset.append(
            LabeledInstance(
                c=inst.c,
                features=inst.features,
                u_star=fake_u,
                v_star=inst.v_star,
                optimal_edges=inst.optimal_edges,
            )
        )
    return dataset


def test_linreg_recovers_affine_labels():
    rng = np.random.default_rng(42)
    w = rng.normal(0.0, 1.0, FEATURE_DIM)
    b = 0.37
    dataset = _affine_dataset(w, b)
    weights = train_linreg(dataset)
    for inst in dataset:
        pred = seed_linreg(inst.features, weights)
        assert np.abs(pred - inst.u_star).max() <= 1e-6
    xs = np.concatenate([inst.features for inst in dataset])
    ys = np.concatenate([inst.u_star for inst in dataset])
    residual = np.abs(xs @ weights.w + weights.b - ys).mean()
    assert residual <= 1e-8


def test_linreg_zero_weights_predict_bias():
    inst = gen_labels(gen_dense(7, seed=43))
    weights = LinregWeights(w=np.zeros(FEATURE_DIM), b=3.3)
    assert np.array_equal(seed_linreg(inst.features, weights), np.full(7, 3.3))


def test_linreg_prediction_shape_and_dim_check():
    inst = gen_labels(gen_dense(9, seed=44))
    weights = train_linreg([inst])
    assert seed_linreg(inst.features, weights).shape == (9,)
    with pytest.raises(ShapeMismatch):
        seed_linreg(inst.features[:, :-3], weights)


def test_linreg_singular_without_ridge():
    # 3 pooled samples cannot determine 11 coefficients: the normal
    # equations are singular once the ridge is disabled.
    inst = gen_labels(gen_dense(3, seed=45))
    with pytest.raises(SingularSystem):
        train_linreg([inst], ridge=0.0)
    weights = train_linreg([inst])  # default ridge conditions the system
    assert np.isfinite(weights.w).all() and np.isfinite(weights.b)


# ------------------------------------------------------------ learned median

def test_median_hand_computed():
    duals = np.array([[1.0, 3.0], [2.0, 4.0], [3.0, 5.0]])
    assert np.array_equal(seed_learned_median(duals), np.array([2.0, 4.0]))


def test_median_lower_median_for_even_count():
    duals = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(seed_learned_median(duals), np.array([1.0, 3.0]))


def test_median_single_vector():
    duals = np.array([[0.5, -1.0, 2.0]])
    assert np.array_equal(seed_learned_median(duals), duals[0])


def test_median_matches_sorting_oracle():
    rng = np.random.default_rng(46)
    for _ in range(20):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 8))
        duals = rng.normal(0.0, 1.0, (m, n))
        got = seed_learned_median(duals)
        expected = [statistics.median_low(duals[:, j].tolist()) for j in range(n)]
        assert np.array_equal(got, np.array(expected))


def test_median_rejects_bad_shape():
    with pytest.raises(ShapeMismatch):
        seed_learned_median(np.zeros(4))
    with pytest.raises(ShapeMismatch):
        seed_learned_median(np.zeros((0, 4)))


# --------------------------------------------------------------- subgradient

def test_subgradient_zero_budget_returns_row_minima():
    c = gen_dense(10, seed=47)
    u = seed_subgradient(c, steps=0)
    assert np.array_equal(u, c.values.min(axis=1))


def test_subgradient_zero_matrix_keeps_origin():
    # From u = [0, 0] the column argmins tie to row 0, the subgradient is
    # [-1, 1], and any step strictly lowers g; the best-seen iterate must
    # therefore remain the all-zero start.
    c = CostMatrix.from_array(np.zeros((2, 2)))
    u = seed_subgradient(c, steps=200)
    assert np.array_equal(u, np.zeros(2))


def test_subgradient_improves_and_respects_weak_duality():
    c = gen_dense(16, seed=30)
    u0 = c.values.min(axis=1)
    g0 = dual_objective(c.values, u0)
    optimal = solve_cold(c)[0].total_cost
    u = seed_subgradient(c, steps=3000)
    g = dual_objective(c.values, u)
    assert g > g0 + 0.01
    assert g <= optimal + 1e-9


def test_subgradient_best_iterate_never_below_start():
    for trial in range(5):
        c = gen_dense(12, seed=48, stream_index=trial)
        g0 = dual_objective(c.values, c.values.min(axis=1))
        u = seed_subgradient(c, steps=50)
        assert dual_objective(c.values, u) >= g0


def _subgradient_reference(c, steps):
    """The ascent written plainly: g and the argmins from separate passes."""
    values = c.values
    u = values.min(axis=1)
    step0 = float(values.max() - values.min()) / 10.0 or 1.0
    best_u, best_g = u, dual_objective(values, u)
    for t in range(1, steps + 1):
        rows = (values - u[:, None]).argmin(axis=0)
        u = u + (step0 / np.sqrt(t)) * (1.0 - np.bincount(rows, minlength=c.n))
        if dual_objective(values, u) > best_g:
            best_u, best_g = u, dual_objective(values, u)
    return best_u


def test_subgradient_is_deterministic():
    c = gen_dense(24, seed=46)
    u = seed_subgradient(c)
    assert u.tobytes() == seed_subgradient(c).tobytes()
    assert u.tobytes() == _subgradient_reference(c, SUBGRADIENT_STEPS).tobytes()
    assert seed_subgradient(c, 40).tobytes() == _subgradient_reference(c, 40).tobytes()


def test_subgradient_optimal_duals_attain_primal_cost():
    c = gen_dense(14, seed=49)
    a, duals, _ = solve_cold(c)
    assert dual_objective(c.values, duals.u) == pytest.approx(a.total_cost, abs=1e-9)


# ----------------------------------------------------------- universal safety

def test_every_baseline_yields_exact_optimum():
    cfg = PipelineConfig()
    for trial in range(5):
        c = gen_dense(20, seed=50, stream_index=trial)
        reference = solve_cold(c)[0].total_cost
        inst = gen_labels(c)
        weights = train_linreg([inst])
        seeds = {
            "row_mean": seed_row_mean(c),
            "row_min": seed_row_min(c),
            "random": seed_random(c, seed=trial),
            "linreg": seed_linreg(inst.features, weights),
            "median": seed_learned_median(inst.u_star[None, :]),
            "subgradient": seed_subgradient(c),
        }
        for name, u_hat in seeds.items():
            assignment, duals, stats = solve_seeded(c, min_trick(c, u_hat))
            assert assignment.total_cost == pytest.approx(reference, abs=1e-9), name
