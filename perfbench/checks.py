"""Correctness checks that rely on nothing from the package under test.

The optimum comes from scipy.optimize.linear_sum_assignment, and reduced
costs are recomputed here from C, so a fault in dualseed's own certificate
code cannot hide a wrong answer. Each check returns a list of fault names;
an empty list means the solve passed.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

RTOL = 1e-9


def optimum(values: np.ndarray) -> float:
    _, cols = linear_sum_assignment(values)  # rows come back as 0..n-1
    return cost_of(values, cols)


def cost_of(values: np.ndarray, row_to_col: np.ndarray) -> float:
    return float(values[np.arange(values.shape[0]), row_to_col].sum())


def is_permutation(row_to_col, n: int) -> bool:
    p = np.asarray(row_to_col)
    return (
        p.shape == (n,)
        and np.issubdtype(p.dtype, np.integer)
        and np.array_equal(np.sort(p), np.arange(n))
    )


def assignment_faults(values: np.ndarray, row_to_col, reported_cost: float, best: float) -> list:
    """A permutation whose recomputed cost is `best` within RTOL, as reported."""
    if not is_permutation(row_to_col, values.shape[0]):
        return ["not-a-permutation"]
    cost = cost_of(values, np.asarray(row_to_col))
    faults = []
    if abs(cost - best) > RTOL * abs(best):
        faults.append("not-optimal")
    if not abs(reported_cost - cost) <= RTOL * abs(cost):
        faults.append("reported-cost-mismatch")
    return faults


def dual_faults(values: np.ndarray, row_to_col, u, v) -> list:
    """Feasible duals, tight on every assigned edge: the optimality certificate.

    The tolerance is RTOL times the largest cost magnitude (at least 1), so
    it follows the instance's scale rather than any constant of the solver.
    """
    n = values.shape[0]
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != (n,) or v.shape != (n,) or not (np.isfinite(u).all() and np.isfinite(v).all()):
        return ["malformed-duals"]
    tol = RTOL * max(1.0, float(np.abs(values).max()))
    r = (values - u[:, None]) - v[None, :]
    faults = []
    if r.min() < -tol:
        faults.append("infeasible-dual")
    if np.abs(r[np.arange(n), np.asarray(row_to_col)]).max() > tol:
        faults.append("slack-assigned-edge")
    return faults
