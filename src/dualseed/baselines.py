"""Competing seed strategies: heuristics, a linear model, the coordinate-wise
learned median, and a fixed-step subgradient-ascent dual initializer.

Every strategy emits raw row potentials; downstream callers restore
feasibility with the columnwise-minimum completion, so any real vector is a
safe output.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, SingularSystem
from ._rng import STREAM_SEED_RANDOM, substream
from .lap_core import CostMatrix, column_minima


def seed_row_mean(c: CostMatrix) -> np.ndarray:
    """u_i = mean of row i."""
    return c.values.mean(axis=1)


def seed_row_min(c: CostMatrix) -> np.ndarray:
    """u_i = min_j C_ij, the Hungarian row reduction: a seed that costs one
    pass over C and no training, the bar a learned seed has to clear."""
    return c.values.min(axis=1)


def seed_random(c: CostMatrix, seed: int) -> np.ndarray:
    """i.i.d. uniform(0,1) potentials; deterministic per seed."""
    rng = substream(seed, STREAM_SEED_RANDOM)
    return rng.random(c.n)


@dataclass
class LinregWeights:
    """Affine per-row map u_hat = f @ w + b, shared across rows and instances."""

    w: np.ndarray
    b: float


def train_linreg(dataset: list, ridge: float = 1e-8) -> LinregWeights:
    """Pooled least squares over (feature row, u* entry) samples.

    Normal equations with a small ridge for conditioning; with ridge
    disabled a rank-deficient design surfaces as SingularSystem.
    """
    xs = np.concatenate([inst.features for inst in dataset], axis=0)
    ys = np.concatenate([inst.u_star for inst in dataset])
    ones = np.ones((xs.shape[0], 1))
    design = np.concatenate([xs, ones], axis=1)
    gram = design.T @ design
    if ridge:
        gram = gram + ridge * np.eye(gram.shape[0])
    try:
        coef = np.linalg.solve(gram, design.T @ ys)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"normal equations singular: {exc}") from exc
    return LinregWeights(w=coef[:-1], b=float(coef[-1]))


def seed_linreg(f, weights: LinregWeights) -> np.ndarray:
    values = np.asarray(f, dtype=np.float64)
    if values.shape[1] != weights.w.shape[0]:
        raise ShapeMismatch(
            f"feature dim {values.shape[1]} does not match weights dim {weights.w.shape[0]}"
        )
    return values @ weights.w + weights.b


def seed_learned_median(training_duals: np.ndarray) -> np.ndarray:
    """Coordinate-wise lower median of gauge-fixed u* vectors (fixed n)."""
    duals = np.asarray(training_duals, dtype=np.float64)
    if duals.ndim != 2 or duals.shape[0] < 1:
        raise ShapeMismatch(f"training duals must be (M, n), got {duals.shape}")
    m = duals.shape[0]
    return np.sort(duals, axis=0)[(m - 1) // 2]


SUBGRADIENT_STEPS = 5


def dual_objective(values: np.ndarray, u: np.ndarray) -> float:
    """The reduced dual g(u) = sum(u) + sum_j min_i (C_ij - u_i)."""
    return float(u.sum() + column_minima(values, u)[0].sum())


def seed_subgradient(c: CostMatrix, steps: int = SUBGRADIENT_STEPS) -> np.ndarray:
    """Subgradient ascent on g from u0 = row minima, best iterate kept.

    Each iterate costs one column_minima pass over C, which gives both g and
    the column argmins; step t moves by range(C) / 10 / sqrt(t) times the
    subgradient 1 - (columns each row attains). Returns the iterate with the
    best dual objective seen after `steps` steps (u0 itself when steps is
    0), the same on every machine.
    """
    values = c.values
    n = c.n
    u = values.min(axis=1).astype(np.float64)
    step0 = float(values.max() - values.min()) / 10.0 or 1.0
    minima, rows = column_minima(values, u, argmins=True)
    best_u = u
    best_g = float(u.sum() + minima.sum())
    for t in range(1, steps + 1):
        u = u + (step0 / np.sqrt(t)) * (1.0 - np.bincount(rows, minlength=n))
        minima, rows = column_minima(values, u, argmins=True)
        g = float(u.sum() + minima.sum())
        if g > best_g:
            best_g = g
            best_u = u
    return best_u
