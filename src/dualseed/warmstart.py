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

from .errors import InvalidSetting, NonFinite, ShapeMismatch
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
    "k_mean", "k_std",
)
FEATURE_DIM = len(FEATURE_NAMES)
FEATURE_K = 10  # k_mean and k_std summarise each row's FEATURE_K smallest costs
_ROW_STAT_COLS = [FEATURE_NAMES.index(name) for name in (
    "row_min", "row_max", "row_mean", "row_std",
    "entropy", "difficulty", "near_best",
    "k_mean", "k_std",
)]
_IS_COL_BEST = FEATURE_NAMES.index("is_col_best")


@dataclass
class PipelineConfig:
    """Tolerances shared across the pipeline."""

    eps: float = 1e-5
    tau: float = 1.2

    def __post_init__(self):
        if self.eps <= 0:
            raise InvalidSetting("eps must be positive")
        if self.tau < 0:
            raise InvalidSetting("tau must be nonnegative")


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


def extract_features(c: CostMatrix, normalize: bool = True, *, smallest: np.ndarray | None = None,
                     col_argmins: np.ndarray | None = None) -> np.ndarray:
    """Build the (n, FEATURE_DIM) feature array for cost matrix rows.

    Row-distribution statistics are computed from each row sorted ascending,
    and is_col_best is the share of columns whose lowest minimising row is
    this one, from one column_minima pass, so permuting the columns of C
    reproduces every feature bit for bit. Every feature is z-scored per
    instance (std floored at 1e-8); `normalize=False` returns the raw values,
    which is what the documented per-feature formulas describe.

    The same pass fills the optional buffers that later stages would
    otherwise read C again for: `smallest`, shape (n, K), gets each row's K
    smallest costs ascending, padded by the row maximum when K > n (the
    refinement input of rowdualnet.forward), and `col_argmins`, shape (n,),
    gets each column's lowest minimising row (the harvest of solve_cold).
    """
    values = c.values
    n = c.n
    if n < 2:
        raise ShapeMismatch("feature extraction requires n >= 2")
    if smallest is not None and (smallest.ndim != 2 or smallest.shape[0] != n):
        raise ShapeMismatch(f"smallest has shape {smallest.shape}, expected ({n}, K)")
    k = min(FEATURE_K, n)

    # Every row statistic is a per-row reduction, so passes over blocks of
    # rows give the same bits as whole-matrix passes while each block's
    # temporaries stay in cache.
    step = max(1, BLOCK_ENTRIES // n)
    feats = np.empty((n, FEATURE_DIM), dtype=np.float64)
    for lo in range(0, n, step):
        srows = np.sort(values[lo : lo + step], axis=1)
        feats[lo : lo + step, _ROW_STAT_COLS] = _row_statistics(srows, k)
        if smallest is not None:
            m = min(smallest.shape[1], n)  # the rest repeats the row maximum
            smallest[lo : lo + step, :m] = srows[:, :m]
            smallest[lo : lo + step, m:] = srows[:, -1:]
    _, col_best = column_minima(values, None, argmins=True)
    feats[:, _IS_COL_BEST] = np.bincount(col_best, minlength=n) / n
    if col_argmins is not None:
        col_argmins[...] = col_best

    if normalize:
        mu = feats.mean(axis=0)
        sd = np.maximum(feats.std(axis=0), 1e-8)
        feats = (feats - mu) / sd
    return feats


def _mean_std(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x.mean(axis=1) and x.std(axis=1), the same bits: numpy's own steps,
    with the mean taken once."""
    n = x.shape[1]
    mean = x.sum(axis=1) / n
    dev = x - mean[:, None]
    dev *= dev
    return mean, np.sqrt(dev.sum(axis=1) / n)


def _row_statistics(srows: np.ndarray, k: int) -> np.ndarray:
    """Raw features _ROW_STAT_COLS for a block of rows sorted ascending."""
    n = srows.shape[1]
    row_min = srows[:, 0]
    row_max = srows[:, -1]
    row_mean, row_std = _mean_std(srows)

    # Entropy of the softmax of the negated row (low cost -> high
    # probability): with z = row_min - C_ij <= 0, e = exp(z) and S = sum e,
    # -sum p log p = log S - sum(e z) / S. S >= 1, and an e that underflows
    # to 0 adds 0 where p log p would be 0 * -inf.
    z = row_min[:, None] - srows
    e = np.exp(z)
    s = e.sum(axis=1)
    entropy = np.log(s) - np.einsum("ij,ij->i", e, z) / s

    # the sorted gaps telescope: their mean is (max - min) / (n - 1)
    difficulty = 1.0 / ((row_max - row_min) / (n - 1) + 1e-12)

    # rows are sorted, so the entries within 1.1 * row_min come first and
    # the first entry above it is their count (n when the last is not above)
    above = srows > 1.1 * row_min[:, None]
    near_best = np.where(above[:, -1], above.argmax(axis=1), n) / n

    k_mean, k_std = _mean_std(srows[:, :k])
    return np.column_stack([
        row_min, row_max, row_mean, row_std,
        entropy, difficulty, near_best,
        k_mean, k_std,
    ])


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

    if model.input_dim != FEATURE_DIM:
        raise ShapeMismatch(f"model expects d={model.input_dim}, features have d={FEATURE_DIM}")
    # the feature pass fills it before predict reads it
    smallest = np.empty((c.n, model.refine_k))

    def predict(feats: np.ndarray) -> np.ndarray:
        return forward(model, feats, c, smallest=smallest)

    return run_pipeline(c, predict, cfg, needs_features=True, smallest=smallest)


def run_pipeline(
    c: CostMatrix,
    predict,
    cfg: PipelineConfig,
    needs_features: bool = True,
    smallest: np.ndarray | None = None,
) -> tuple[Assignment, PipelineReport]:
    """Timed five-stage pipeline around an arbitrary row-potential predictor.

    `predict` maps the feature array (or None when needs_features is False) to
    a length-n array of row potentials. warm_solve and every benchmark
    strategy share this path so their stage timings mean the same thing.
    An output that is not n finite values raises ShapeMismatch or NonFinite
    whatever the gate would decide.

    The feature stage fills `smallest` (see extract_features) for predict
    to read, and its column argmins are the cold solve's harvest on a
    fallback, so neither stage reads C for them again.
    """
    n = c.n
    report = PipelineReport()
    col_argmins = np.empty(n, dtype=np.intp) if needs_features else None

    t0 = time.perf_counter_ns()
    feats = (extract_features(c, smallest=smallest, col_argmins=col_argmins)
             if needs_features else None)
    t1 = time.perf_counter_ns()
    u_hat = _row_potentials(predict(feats), n)
    t2 = time.perf_counter_ns()
    duals = min_trick(c, u_hat)
    t3 = time.perf_counter_ns()
    rho = equality_density(c, duals, cfg.eps)
    fallback = rho < cfg.tau
    t4 = time.perf_counter_ns()
    if fallback:
        assignment, _, stats = solve_cold(c, col_argmins)
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
