"""Warm-start pipeline: features, column potentials, density gate, seeded solve.

A warm solve runs five stages: extract row features, predict row potentials
with the model, complete them into feasible duals via columnwise minima,
measure the equality-subgraph density, and either seed the solver or fall
back to a cold start when the density is below the gate. Every stage is
wall-clock timed; the report carries the timings, the density, and the solver
counters.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFinite, ShapeMismatch
from .lap_core import (
    BLOCK_ENTRIES,
    Assignment,
    CostMatrix,
    DualPotentials,
    SolveStats,
    column_minima,
    equality_count,
    solve_cold,
    solve_seeded,
)

FEATURE_DIM = 21
NON_POSITIONAL = 13
REDUCED_DIMS = (4, 13, 21)
PE_FREQS = (1.0, 2.0, 4.0, 8.0)

STAGE_FEATURES = "features"
STAGE_MODEL = "model"
STAGE_MIN_TRICK = "min_trick"
STAGE_FALLBACK = "fallback_check"
STAGE_SOLVER = "solver"
STAGE_NAMES = (STAGE_FEATURES, STAGE_MODEL, STAGE_MIN_TRICK, STAGE_FALLBACK, STAGE_SOLVER)

FEATURE_NAMES = (
    "row_min", "row_max", "row_mean", "row_std",
    "entropy", "difficulty",
    "near_best", "is_col_best",
    "k_mean", "k_std", "rank_mean", "rank_std", "norm_rank",
    "pe_0", "pe_1", "pe_2", "pe_3", "pe_4", "pe_5", "pe_6", "pe_7",
)
_ROW_STAT_COLS = [FEATURE_NAMES.index(name) for name in (
    "row_min", "row_max", "row_mean", "row_std",
    "entropy", "difficulty", "near_best",
    "k_mean", "k_std",
)]
_COLUMN_STAT_COLS = [FEATURE_NAMES.index(name) for name in (
    "is_col_best", "rank_mean", "rank_std", "norm_rank",
)]


@dataclass
class PipelineConfig:
    """Tolerances and dimensions shared across the pipeline."""

    eps: float = 1e-5
    tau: float = 1.2
    refine_k: int = 16
    feature_k: int = 10
    feature_dim: int = FEATURE_DIM

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.refine_k < 1 or self.feature_k < 1:
            raise ValueError("refine_k and feature_k must be >= 1")
        if self.feature_dim not in REDUCED_DIMS:
            raise ValueError(f"feature_dim must be one of {REDUCED_DIMS}")


@dataclass
class FeatureMatrix:
    """Per-row feature vectors, one row per cost-matrix row."""

    n: int
    d: int
    values: np.ndarray


@dataclass
class PipelineReport:
    """Outcome of one warm_solve: timings, density, gate decision, solve.

    A cold solve has no gate: its density and decision are None.
    """

    stage_times: dict = field(default_factory=dict)
    density_rho: float | None = 0.0
    fallback_triggered: bool | None = False
    solve_stats: SolveStats | None = None
    total_cost: float = 0.0


def extract_features(c: CostMatrix, cfg: PipelineConfig, normalize: bool = True) -> FeatureMatrix:
    """Build the n x d feature matrix for cost matrix rows.

    Row-distribution statistics are computed from each row sorted ascending
    and count statistics from exact integer tallies, so permuting the columns
    of C reproduces every feature bit for bit. The 13 cost-derived features
    are z-scored per instance (std floored at 1e-8); the 8 positional
    encodings pass through raw. `normalize=False` returns the raw values,
    which is what the documented per-feature formulas describe.
    """
    values = c.values
    n = c.n
    if n < 2:
        raise ShapeMismatch("feature extraction requires n >= 2")
    k = min(cfg.feature_k, n)

    # Every statistic is a per-row reduction or an exact integer tally, so
    # passes over blocks of rows (and of columns) give the same bits as
    # whole-matrix passes while each block's temporaries stay in cache.
    step = max(1, BLOCK_ENTRIES // n)
    feats = np.empty((n, FEATURE_DIM), dtype=np.float64)
    for lo in range(0, n, step):
        feats[lo : lo + step, _ROW_STAT_COLS] = _row_statistics(values[lo : lo + step], k)
    feats[:, _COLUMN_STAT_COLS] = _column_statistics(values, step)

    idx = np.arange(n, dtype=np.float64) / n
    for m, f in enumerate(PE_FREQS):
        feats[:, NON_POSITIONAL + 2 * m] = np.sin(2.0 * np.pi * f * idx)
        feats[:, NON_POSITIONAL + 2 * m + 1] = np.cos(2.0 * np.pi * f * idx)

    if normalize:
        block = feats[:, :NON_POSITIONAL]
        mu = block.mean(axis=0)
        sd = np.maximum(block.std(axis=0), 1e-8)
        feats[:, :NON_POSITIONAL] = (block - mu) / sd

    d = cfg.feature_dim
    return FeatureMatrix(n=n, d=d, values=np.ascontiguousarray(feats[:, :d]))


def _row_statistics(rows: np.ndarray, k: int) -> np.ndarray:
    """Raw features _ROW_STAT_COLS for a block of rows, one row each."""
    n = rows.shape[1]
    srows = np.sort(rows, axis=1)
    row_min = srows[:, 0]
    row_max = srows[:, -1]
    row_mean = srows.mean(axis=1)
    row_std = srows.std(axis=1)

    # softmax of the negated row: low cost -> high probability
    z = -srows
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    entropy = -(p * np.log(p)).sum(axis=1)

    mean_gap = np.diff(srows, axis=1).mean(axis=1)
    difficulty = 1.0 / (mean_gap + 1e-12)

    near_best = (srows <= 1.1 * row_min[:, None]).sum(axis=1) / n

    k_mean = srows[:, :k].mean(axis=1)
    k_std = srows[:, :k].std(axis=1)
    return np.column_stack([
        row_min, row_max, row_mean, row_std,
        entropy, difficulty, near_best,
        k_mean, k_std,
    ])


def _column_statistics(values: np.ndarray, step: int) -> np.ndarray:
    """Raw features _COLUMN_STAT_COLS, from ranks within columns.

    The rank of C_ij is its 0-based position within column j, ties to the
    lower row index. Rank sums and sums of squares are accumulated in float64
    over blocks of `step` columns; every partial sum is an integer below
    2**53, so the sums are exact and column permutations cancel bit for bit.
    """
    n = values.shape[0]
    col_best = np.zeros(n, dtype=np.int64)
    rank_sum = np.zeros(n)
    rank_sumsq = np.zeros(n)
    ranks = np.arange(n, dtype=np.float64)
    for lo in range(0, values.shape[1], step):
        order = _column_order(values[:, lo : lo + step])
        col_best += np.bincount(order[:, 0], minlength=n)
        rows = order.ravel()
        r = np.tile(ranks, order.shape[0])
        rank_sum += np.bincount(rows, weights=r, minlength=n)
        rank_sumsq += np.bincount(rows, weights=r * r, minlength=n)
    rank_mean_raw = rank_sum / n
    rank_var = rank_sumsq / n - rank_mean_raw**2
    rank_std = np.sqrt(np.maximum(rank_var, 0.0))
    rank_mean = rank_mean_raw / (n - 1)
    norm_rank = 1.0 - rank_mean
    return np.column_stack([col_best / n, rank_mean, rank_std, norm_rank])


def _column_order(values: np.ndarray) -> np.ndarray:
    """Row indices of each column sorted ascending, one column per row.

    Equals np.argsort(values, axis=0, kind="stable").T. The sort runs on a
    contiguous transposed copy with the default (unstable) algorithm, which
    can only disagree with the stable one inside runs of equal values. In
    each column that has such a run, the rows are put in order by one
    integer sort of the keys run * n + row, where run counts the value
    changes before each position of the sorted column: runs keep their
    places and each run's rows come out ascending, which is the stable
    order. Tie-free columns keep the first sort.
    """
    n = values.shape[0]
    vt = np.ascontiguousarray(values.T)
    order = np.argsort(vt, axis=1)
    ranked = np.take_along_axis(vt, order, axis=1)
    steps = ranked[:, 1:] != ranked[:, :-1]
    tied = ~steps.all(axis=1)
    if tied.any():
        run = np.zeros((np.count_nonzero(tied), n), dtype=np.int64)
        np.cumsum(steps[tied], axis=1, out=run[:, 1:])
        run *= n
        keys = run + order[tied]
        keys.sort(axis=1)
        order[tied] = keys - run
    return order


def _row_potentials(u_hat, n: int) -> np.ndarray:
    """u_hat as a float64 vector, checked to be n finite values: a NaN or an
    infinity would make the completion and the gate meaningless."""
    u_hat = np.asarray(u_hat, dtype=np.float64)
    if u_hat.shape != (n,):
        raise ShapeMismatch(f"row potentials have shape {u_hat.shape}, expected ({n},)")
    if not np.isfinite(u_hat).all():
        raise NonFinite("row potentials contain NaN or infinity")
    return u_hat


def min_trick(c: CostMatrix, u_hat: np.ndarray) -> DualPotentials:
    """Complete row potentials into feasible duals via columnwise minima.

    Feasibility is exact in floating point: v_j is the min of the float
    values (C_ij - u_i), so (C_ij - u_i) - v_j >= 0 holds entrywise with no
    tolerance needed.
    """
    u_hat = _row_potentials(u_hat, c.n)
    v_hat, _ = column_minima(c.values, u_hat)
    return DualPotentials(u_hat.copy(), v_hat)


def equality_density(c: CostMatrix, d: DualPotentials, eps: float) -> float:
    """rho = |{(i,j): |C_ij - u_i - v_j| < eps}| / n, in [0, n].

    For a min_trick completion every reduced cost is >= 0 and each column's
    minimum is exactly 0, so rho counts the equality edges per row; this is
    the pipeline's gate.
    """
    count = equality_count(c.values, d.u, d.v, eps)
    return float(count / c.n)


def warm_solve(c: CostMatrix, model, cfg: PipelineConfig) -> tuple[Assignment, PipelineReport]:
    """Full pipeline: features -> model -> min_trick -> gate -> solve.

    Falls back to a cold start when the equality-subgraph density is below
    cfg.tau. The returned cost is the optimal cost either way; the report
    says which path ran and what each stage cost.
    """
    from .rowdualnet import forward

    if model.input_dim != cfg.feature_dim:
        raise ShapeMismatch(
            f"model expects d={model.input_dim}, config says d={cfg.feature_dim}"
        )

    def predict(feats: FeatureMatrix) -> np.ndarray:
        return forward(model, feats, c)

    return run_pipeline(c, predict, cfg, needs_features=True)


def run_pipeline(
    c: CostMatrix,
    predict,
    cfg: PipelineConfig,
    needs_features: bool = True,
) -> tuple[Assignment, PipelineReport]:
    """Timed five-stage pipeline around an arbitrary row-potential predictor.

    `predict` maps a FeatureMatrix (or None when needs_features is False) to
    a length-n array of row potentials. warm_solve and every benchmark
    strategy share this path so their stage timings mean the same thing.
    An output that is not n finite values raises ShapeMismatch or NonFinite
    whatever the gate would decide.
    """
    n = c.n
    report = PipelineReport()

    t0 = time.perf_counter_ns()
    feats = extract_features(c, cfg) if needs_features else None
    t1 = time.perf_counter_ns()
    u_hat = _row_potentials(predict(feats), n)
    t2 = time.perf_counter_ns()
    duals = min_trick(c, u_hat)
    t3 = time.perf_counter_ns()
    rho = equality_density(c, duals, cfg.eps)
    fallback = rho < cfg.tau
    t4 = time.perf_counter_ns()
    if fallback:
        assignment, _, stats = solve_cold(c)
    else:
        assignment, _, stats = solve_seeded(c, duals)
    t5 = time.perf_counter_ns()

    report.stage_times = {
        STAGE_FEATURES: t1 - t0,
        STAGE_MODEL: t2 - t1,
        STAGE_MIN_TRICK: t3 - t2,
        STAGE_FALLBACK: t4 - t3,
        STAGE_SOLVER: t5 - t4,
    }
    report.density_rho = rho
    report.fallback_triggered = fallback
    report.solve_stats = stats
    report.total_cost = assignment.total_cost
    return assignment, report
