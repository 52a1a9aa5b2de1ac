"""Solver oracle tests: brute-force agreement, certificates, seeded behavior."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualseed import lap_core
from dualseed.datagen import BlockParams, gen_block, gen_dense, sparsify
from dualseed.errors import InfeasibleSeed, NonFinite, NonSquare, ShapeMismatch, TooLarge
from dualseed.lap_core import (
    EQ_TOL,
    Assignment,
    CostMatrix,
    DualPotentials,
    brute_force,
    center_duals,
    column_minima,
    equality_count,
    reduced_costs,
    solve_cold,
    solve_seeded,
    verify_certificate,
)
from dualseed.warmstart import min_trick


def _random_matrix(rng, n, integer=False):
    if integer:
        return CostMatrix.from_array(rng.integers(0, 20, size=(n, n)).astype(np.float64))
    return CostMatrix.from_array(rng.random((n, n)))


# ---------------------------------------------------------------- CostMatrix

def test_cost_matrix_rejects_non_square():
    with pytest.raises(NonSquare):
        CostMatrix.from_array(np.zeros((2, 3)))


def test_cost_matrix_rejects_nan():
    bad = np.zeros((2, 2))
    bad[0, 1] = np.nan
    with pytest.raises(NonFinite):
        CostMatrix.from_array(bad)


def test_cost_matrix_rejects_empty():
    with pytest.raises(NonSquare):
        CostMatrix.from_array(np.zeros((0, 0)))


def test_cost_matrix_constructor_validates():
    with pytest.raises(NonFinite):
        CostMatrix(np.array([[np.nan]]))
    with pytest.raises(NonSquare):
        CostMatrix(np.zeros((2, 3)))
    with pytest.raises(NonFinite):
        CostMatrix(np.zeros((2, 2)), sentinel=np.inf)
    c = CostMatrix(np.arange(4).reshape(2, 2).T)
    assert c.values.dtype == np.float64 and c.values.flags.c_contiguous


# ---------------------------------------------------------------- brute force

def test_brute_force_2x2():
    cost, perm = brute_force(CostMatrix.from_array(np.array([[1.0, 2.0], [2.0, 1.0]])))
    assert cost == 2.0
    assert list(perm) == [0, 1]


def test_brute_force_3x3_enumerated():
    c = CostMatrix.from_array(np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]]))
    cost, perm = brute_force(c)
    assert cost == 5.0
    assert list(perm) == [1, 0, 2]


def test_brute_force_1x1():
    cost, perm = brute_force(CostMatrix.from_array(np.array([[5.0]])))
    assert cost == 5.0
    assert list(perm) == [0]


def test_brute_force_lexicographic_ties():
    # every permutation of a constant matrix costs the same; the identity is
    # the lexicographically smallest
    c = CostMatrix.from_array(np.full((4, 4), 3.0))
    cost, perm = brute_force(c)
    assert cost == 12.0
    assert list(perm) == [0, 1, 2, 3]


def _brute_force_loop(c):
    """Reference: one permutation at a time, strict improvements only."""
    rows = np.arange(c.n)
    best_cost, best_perm = np.inf, None
    for perm in itertools.permutations(range(c.n)):
        cost = float(c.values[rows, perm].sum())
        if cost < best_cost:
            best_cost, best_perm = cost, perm
    return best_cost, np.array(best_perm, dtype=np.int64)


def test_brute_force_bit_identical_to_loop_reference():
    # n = 8 spans several blocks of permutations; integer costs make ties
    # that the lexicographic rule must break the same way across blocks
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 5, 7, 8):
        for integer in (False, True):
            c = _random_matrix(rng, n, integer=integer)
            cost, perm = brute_force(c)
            ref_cost, ref_perm = _brute_force_loop(c)
            assert cost == ref_cost
            assert np.array_equal(perm, ref_perm)
    cost, perm = brute_force(CostMatrix.from_array(np.full((8, 8), 0.1)))
    assert list(perm) == list(range(8))
    assert cost == _brute_force_loop(CostMatrix.from_array(np.full((8, 8), 0.1)))[0]


def test_brute_force_size_guard():
    with pytest.raises(TooLarge):
        brute_force(CostMatrix.from_array(np.zeros((11, 11))))


def test_brute_force_matches_exhaustive_enumeration():
    rng = np.random.default_rng(7)
    c = _random_matrix(rng, 5)
    best = min(
        (sum(c.values[i, p[i]] for i in range(5)), list(p))
        for p in itertools.permutations(range(5))
    )
    cost, perm = brute_force(c)
    assert cost == pytest.approx(best[0], abs=1e-12)
    assert list(perm) == best[1]


# ---------------------------------------------------------------- solve_cold

def test_cold_2x2_diagonal():
    a, d, s = solve_cold(CostMatrix.from_array(np.array([[1.0, 2.0], [2.0, 1.0]])))
    assert a.total_cost == 2.0
    assert list(a.row_to_col) == [0, 1]


def test_cold_3x3_example():
    c = CostMatrix.from_array(np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]]))
    a, d, s = solve_cold(c)
    assert a.total_cost == 5.0
    assert list(a.row_to_col) == [1, 0, 2]
    assert verify_certificate(c, a, d)


def test_cold_1x1():
    a, d, s = solve_cold(CostMatrix.from_array(np.array([[7.5]])))
    assert a.total_cost == 7.5
    assert list(a.row_to_col) == [0]
    assert s.greedy_matched + s.free_rows == 1


def test_cold_100_random_8x8_vs_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        c = _random_matrix(rng, 8)
        a, d, s = solve_cold(c)
        oracle_cost, _ = brute_force(c)
        assert a.total_cost == pytest.approx(oracle_cost, abs=1e-9)
        assert verify_certificate(c, a, d)


def test_cold_stats_invariants():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 17, 40):
        c = _random_matrix(rng, n)
        _, _, s = solve_cold(c)
        assert s.greedy_matched + s.free_rows == n
        assert s.augment_searches == s.free_rows
        assert set(s.phase_times) == {"init", "greedy", "augment"}


def test_cold_deterministic():
    rng = np.random.default_rng(5)
    c = _random_matrix(rng, 12)
    a1, d1, s1 = solve_cold(c)
    a2, d2, s2 = solve_cold(c)
    assert np.array_equal(a1.row_to_col, a2.row_to_col)
    assert np.array_equal(d1.u, d2.u) and np.array_equal(d1.v, d2.v)
    assert (s1.greedy_matched, s1.dual_update_steps) == (s2.greedy_matched, s2.dual_update_steps)


def test_cold_tie_with_free_column_ends_search():
    # column reduction assigns row 0 -> col 0 and row 1 -> col 1 and leaves
    # row 2 and col 2 free; row 2 starts its search with col 0 (assigned)
    # and col 2 (free) both at distance 0, so it ends at col 2 at once
    c = CostMatrix.from_array(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    a, d, s = solve_cold(c)
    assert (s.greedy_matched, s.augment_searches) == (2, 1)
    assert s.scanned_columns == 1
    assert list(a.row_to_col) == [0, 1, 2]
    assert a.total_cost == 1.0
    assert verify_certificate(c, a, d)


def test_cold_block_searches_scan_few_columns():
    searches = scanned = 0
    for k in range(4):
        _, _, s = solve_cold(gen_block(BlockParams(n=256, seed=1), stream_index=k))
        searches += s.augment_searches
        scanned += s.scanned_columns
    assert searches > 0
    assert scanned / searches <= 5


# -------------------------------------------------------------- solve_seeded

def test_seeded_equality_edges_example():
    c = CostMatrix.from_array(np.array([[1.0, 2.0], [2.0, 1.0]]))
    seed = DualPotentials(np.array([1.0, 2.0]), np.array([0.0, -1.0]))
    r = reduced_costs(c.values, seed.u, seed.v)
    assert np.array_equal(r, np.array([[0.0, 2.0], [0.0, 0.0]]))
    a, d, s = solve_seeded(c, seed)
    assert a.total_cost == 2.0
    assert s.greedy_matched == 2
    assert s.dual_update_steps == 0


def test_seeded_zero_seed():
    c = CostMatrix.from_array(np.array([[1.0, 2.0], [2.0, 1.0]]))
    a_cold, _, _ = solve_cold(c)
    a, _, _ = solve_seeded(c, DualPotentials(np.zeros(2), np.zeros(2)))
    assert a.total_cost == a_cold.total_cost
    assert np.array_equal(a.row_to_col, a_cold.row_to_col)


def test_seeded_rejects_infeasible():
    c = CostMatrix.from_array(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(InfeasibleSeed):
        solve_seeded(c, DualPotentials(np.array([2.0, 0.0]), np.array([0.0, 0.0])))


def test_seeded_rejects_nan_in_u():
    c = CostMatrix.from_array(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NonFinite):
        solve_seeded(c, DualPotentials(np.array([np.nan, 0.0]), np.zeros(2)))


def test_seeded_rejects_inf_in_v():
    c = CostMatrix.from_array(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NonFinite):
        solve_seeded(c, DualPotentials(np.zeros(2), np.array([0.0, -np.inf])))


def test_seeded_rejects_wrong_shape():
    c = CostMatrix.from_array(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ShapeMismatch):
        solve_seeded(c, DualPotentials(np.zeros(3), np.zeros(3)))


def test_optimal_seed_idle_on_50_instances():
    rng = np.random.default_rng(21)
    for _ in range(50):
        c = _random_matrix(rng, 16)
        _, duals, _ = solve_cold(c)
        shift = duals.u.mean()
        u_star = duals.u - shift
        # columnwise-minimum completion of the gauge-fixed row potentials
        v_hat = (c.values - u_star[:, None]).min(axis=0)
        a, d, s = solve_seeded(c, DualPotentials(u_star, v_hat))
        assert s.dual_update_steps == 0
        assert np.array_equal(d.u, u_star) and np.array_equal(d.v, v_hat)


def test_seed_independence_of_value_200_seeds():
    rng = np.random.default_rng(33)
    c = _random_matrix(rng, 32)
    a_cold, _, _ = solve_cold(c)
    for _ in range(200):
        u = rng.normal(0.0, 0.3, 32)
        v = (c.values - u[:, None]).min(axis=0)
        a, d, s = solve_seeded(c, DualPotentials(u, v))
        assert a.total_cost == pytest.approx(a_cold.total_cost, abs=1e-9)
        assert verify_certificate(c, a, d)
        assert s.greedy_matched + s.free_rows == 32
        assert s.augment_searches == s.free_rows


def _solve_digest(result):
    """The four counters plus a sha256 of the assignment and dual bytes."""
    a, d, s = result
    h = hashlib.sha256()
    for arr in (a.row_to_col, d.u, d.v):
        h.update(np.ascontiguousarray(arr).tobytes())
    return (s.greedy_matched, s.augment_searches, s.dual_update_steps,
            s.scanned_columns, h.hexdigest())


# Counters and bytes of these solves are pinned: a change to the solver
# that moves any of them changes its outputs, not only its speed.
GOLDEN_COLD = {
    "dense-128": (82, 46, 46, 430,
                  "0553d2d3e55b5f41187a4b54f3b0e9ca3ed84a51b6ff05e30743d0c834c44124"),
    "block-256": (58, 198, 0, 600,
                  "f5a9c7acd3853d3f2537b61345405dca40969918c4477375e840d36468dcd8a5"),
    "dense-1024": (636, 388, 388, 14572,
                   "b3ddd39ae904c84336248a7ffdddbea3b4c890f981bcda1934219f39d66d4756"),
    # block-512 and levels3-64 resolve every search on the equality graph;
    # block-1024 and levels3-256 are too dense for it and take the numpy search
    "block-512": (93, 419, 0, 1105,
                  "b06d054fd7f640a71562700f2d5a7b979d4f468712ad58b6eae550e05ff7b774"),
    "block-1024": (118, 906, 0, 1241,
                   "728e01c66b7846ffedf452ec373fefbb6ad1c84f7bf5907bc5bd4f672aed26a2"),
    "levels3-64": (8, 56, 0, 56,
                   "b5f950aac02f2e66969a20d709c7dbfa530108fbf58d929ae00ee7333ca9086f"),
    "levels3-256": (11, 245, 0, 247,
                    "c5985f839006449a768d293e1a6ad3c81b58e45918d494da11757ce231972668"),
}
GOLDEN_SEEDED = {
    "dense-128": (12, 116, 116, 4040,
                  "ead2647b4d24a4a6adc4705133040f878ba38dfc4bc5d162ad415f783243af10"),
    "block-256": (45, 211, 211, 10630,
                  "4f405f0118c483471c0ab96145175e2fdedd0ce18ffb4a061c06507936949557"),
}


def _golden_instance(name):
    family, n = name.split("-")
    if family == "block":
        return gen_block(BlockParams(n=int(n), seed=777))
    if family == "levels3":
        rng = np.random.default_rng(777)
        return CostMatrix.from_array(rng.integers(0, 3, size=(int(n), int(n))).astype(np.float64))
    return gen_dense(int(n), seed=777)


@pytest.mark.parametrize("name", sorted(GOLDEN_COLD))
def test_cold_golden_outputs(name):
    assert _solve_digest(solve_cold(_golden_instance(name))) == GOLDEN_COLD[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SEEDED))
def test_seeded_golden_outputs(name):
    c = _golden_instance(name)
    seed = min_trick(c, np.random.default_rng(31).normal(0.0, 0.3, c.n))
    assert _solve_digest(solve_seeded(c, seed)) == GOLDEN_SEEDED[name]


def test_seeded_harvest_gives_tied_column_to_lowest_row():
    # zero seed, reduced costs = C: column 1 is tight in rows 0 and 1. Its
    # argmin row is 0, which column 0 already took, so the harvest leaves
    # column 1 and row 1 free (a row-by-row greedy pass would match all
    # three); the one search then ends at free column 1 at distance 0.
    c = CostMatrix.from_array(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    a, d, s = solve_seeded(c, DualPotentials(np.zeros(3), np.zeros(3)))
    assert s.greedy_matched == 2
    assert (s.augment_searches, s.dual_update_steps, s.scanned_columns) == (1, 0, 1)
    assert list(a.row_to_col) == [0, 1, 2]
    assert np.array_equal(d.u, np.zeros(3)) and np.array_equal(d.v, np.zeros(3))


def _harvest_loop(r):
    """Reference harvest: columns in index order, each to its argmin row
    when that edge is tight and the row is still free; rows matched."""
    taken = set()
    for j in range(r.shape[1]):
        i = int(np.argmin(r[:, j]))
        if r[i, j] <= EQ_TOL and i not in taken:
            taken.add(i)
    return len(taken)


def test_harvest_matches_loop_reference_on_ties():
    rng = np.random.default_rng(43)
    for n in range(1, 31):
        c = CostMatrix.from_array(rng.integers(0, 4, size=(n, n)).astype(np.float64))
        seed = min_trick(c, rng.integers(0, 3, n).astype(np.float64))
        _, _, s = solve_seeded(c, seed)
        assert s.greedy_matched == _harvest_loop(reduced_costs(c.values, seed.u, seed.v))
        _, _, s = solve_cold(c)
        assert s.greedy_matched == _harvest_loop(c.values - c.values.min(axis=0))


def _tie_heavy(family, n, rng):
    if family == "int0to3":
        return CostMatrix.from_array(rng.integers(0, 4, size=(n, n)).astype(np.float64))
    if family == "signed-grid":
        return CostMatrix.from_array(0.2 * rng.integers(-10, 11, size=(n, n)))
    return gen_block(BlockParams(n=n, seed=int(rng.integers(2**31))))


@pytest.mark.parametrize("family", ["int0to3", "signed-grid", "block"])
def test_differential_vs_scipy_on_tie_heavy_costs(family):
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng(41)
    for n in [*range(1, 61), 200, 200, 200]:
        c = _tie_heavy(family, n, rng)
        rows, cols = linear_sum_assignment(c.values)
        optimum = float(c.values[rows, cols].sum())
        seeds = [min_trick(c, rng.normal(0.0, 1.0, n)) for _ in range(2)]
        results = [solve_cold(c)] + [solve_seeded(c, seed) for seed in seeds]
        for a, d, s in results:
            assert abs(a.total_cost - optimum) <= 1e-9 * max(1.0, abs(optimum)), (family, n)
            assert verify_certificate(c, a, d), (family, n)
            assert s.augment_searches <= s.scanned_columns


# ------------------------------------------------------------- column_minima

def _kernel_inputs(family, n, rng):
    if family == "levels":
        values = rng.integers(0, 3, (n, n)).astype(np.float64)
        u = rng.integers(0, 2, n).astype(np.float64)
    elif family == "signed-zero":
        # -0.0 and +0.0 compare equal, so which one a minimum keeps shows
        # only in the bits
        values = rng.choice(np.array([-0.0, 0.0, 1.0]), size=(n, n))
        u = rng.choice(np.array([-0.0, 0.0]), size=n)
    else:
        values = rng.random((n, n))
        u = rng.normal(0.0, 0.3, n)
    v = rng.choice(np.array([-0.0, 0.0, 0.5]), size=n) if family != "dense" else rng.random(n)
    return values, u, v


@pytest.mark.parametrize("family", ["levels", "signed-zero", "dense"])
def test_column_minima_matches_whole_matrix(family, monkeypatch):
    rng = np.random.default_rng(47)
    n = 31
    values, u, v = _kernel_inputs(family, n, rng)
    d = values - u[:, None]
    for rows_per_block in (1, n // 3, n):
        monkeypatch.setattr(lap_core, "BLOCK_ENTRIES", rows_per_block * n)
        before = values.copy()
        for row_shift, shift, whole in ((None, None, values), (u, None, d), (u, v, d - v)):
            minima, rows = column_minima(values, row_shift, shift, argmins=True)
            assert minima.tobytes() == whole.min(axis=0).tobytes()
            assert rows.tobytes() == whole.argmin(axis=0).tobytes()
            plain = column_minima(values, row_shift, shift)
            assert plain[0].tobytes() == minima.tobytes() and plain[1] is None
        assert values.tobytes() == before.tobytes()  # the zero-u pass reads C in place
        assert equality_count(values, u, v, 0.25) == np.count_nonzero(np.abs(d - v) < 0.25)


def test_search_ending_before_any_pop_still_moves_u():
    # zero seed: row 0 takes column 0, row 1 stays free. Its search finds
    # free column 1 at distance 1 before popping anything; the path is the
    # one edge (1, 1) and u_1 must rise by 1 to keep that edge tight.
    c = CostMatrix.from_array(np.array([[0.0, 5.0], [3.0, 1.0]]))
    a, d, s = solve_seeded(c, DualPotentials(np.zeros(2), np.zeros(2)))
    assert (s.greedy_matched, s.augment_searches, s.dual_update_steps, s.scanned_columns) == (1, 1, 1, 1)
    assert list(a.row_to_col) == [0, 1]
    assert np.array_equal(d.u, [0.0, 1.0]) and np.array_equal(d.v, [0.0, 0.0])
    assert verify_certificate(c, a, d)


def _peak_solve_cold_memory(c):
    solve_cold(c)  # a first call allocates once-only state (lazy imports)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_cold(c)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_solve_cold_builds_no_n_squared_temporary():
    c = gen_dense(1024, seed=3)
    assert _peak_solve_cold_memory(c) <= 0.1 * c.values.nbytes


def test_block_cold_solve_builds_no_n_squared_temporary():
    # the reduction transfer's pass and the (declined) equality graph
    # build included
    c = gen_block(BlockParams(n=1024, seed=3))
    assert _peak_solve_cold_memory(c) <= 0.1 * c.values.nbytes


# ------------------------------------ equality graph and one-pass transfer

def _transfer_loop(values, u, v, row_to_col):
    """Reference reduction transfer: one row at a time, in index order."""
    if values.shape[0] == 1:
        return
    for i in range(values.shape[0]):
        j1 = row_to_col[i]
        if j1 < 0:
            continue
        slack = values[i] - v
        slack[j1] = np.inf
        mu = slack.min() - u[i]
        v[j1] -= mu
        u[i] += mu


def _plain_solves(monkeypatch, c, seeds):
    """Cold and seeded solves through the numpy search alone (a limit of 0
    tight columns per row never builds the graph) and the loop transfer."""
    with monkeypatch.context() as m:
        m.setattr(lap_core, "EQUALITY_GRAPH_LIMIT", 0)
        m.setattr(lap_core, "_reduction_transfer", _transfer_loop)
        return [solve_cold(c)] + [solve_seeded(c, seed) for seed in seeds]


def _tied_instance(family, n, rng):
    if family == "block":
        return gen_block(BlockParams(n=n, seed=int(rng.integers(2**31))))
    if family == "levels":
        return CostMatrix.from_array(rng.integers(0, 3, size=(n, n)).astype(np.float64))
    if family == "signed-zero":
        return CostMatrix.from_array(rng.choice(np.array([-0.0, 0.0, 1.0, 2.0]), size=(n, n)))
    # the sentinel ties of masked edges on top of block ties
    block = gen_block(BlockParams(n=n, seed=int(rng.integers(2**31))))
    return sparsify(block, 0.5, seed=int(rng.integers(2**31)))


@pytest.mark.parametrize("family", ["block", "levels", "signed-zero", "sparsified"])
def test_equality_graph_matches_plain_search(family, monkeypatch):
    rng = np.random.default_rng(53)
    resolved = 0
    for n in [*range(1, 41), 128, 256]:
        c = _tied_instance(family, n, rng)
        seeds = [min_trick(c, rng.integers(0, 2, n).astype(np.float64)),
                 min_trick(c, rng.normal(0.0, 1.0, n))]
        plain = _plain_solves(monkeypatch, c, seeds)
        fast = [solve_cold(c)] + [solve_seeded(c, seed) for seed in seeds]
        for p, f in zip(plain, fast):
            assert _solve_digest(f) == _solve_digest(p), (family, n)
            assert p[2].equality_searches == 0
            assert f[2].equality_searches <= f[2].augment_searches
        resolved += sum(f[2].equality_searches for f in fast)
    assert resolved > 0


def test_constant_matrix_is_too_dense_for_the_equality_graph(monkeypatch):
    # every entry is tight: 64 tight columns per row exceed the limit, so
    # the searches run on numpy; at n = 8 the graph is built and takes them
    for n, on_graph in ((64, False), (8, True)):
        c = CostMatrix.from_array(np.full((n, n), 1.5))
        a, d, s = solve_cold(c)
        assert _solve_digest((a, d, s)) == _solve_digest(_plain_solves(monkeypatch, c, [])[0])
        assert s.augment_searches == n - 1
        assert s.equality_searches == (n - 1 if on_graph else 0)


# Zero seed, so the reduced costs are C. The harvest gives column 0 to row 0,
# column 2 to row 2, column 3 to row 4 and column 5 to row 5, and leaves rows
# 1, 3 and 6 free.
HANDOVER = np.array([
    [0.0, 0.0, 9.0, 9.0, 9.0, 9.0, 9.0],
    [0.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0],
    [9.0, 9.0, 0.0, 5.0, 5.0, 9.0, 9.0],
    [9.0, 9.0, 0.0, 5.0, 5.0, 9.0, 9.0],
    [9.0, 9.0, 5.0, 0.0, 5.0, 9.0, 9.0],
    [9.0, 9.0, 9.0, 9.0, 9.0, 0.0, 0.0],
    [9.0, 9.0, 9.0, 9.0, 9.0, 0.0, 9.0],
])


def test_closure_without_free_column_hands_over_to_numpy(monkeypatch):
    # Row 1's search starts at distance 0 (column 0), builds the graph and
    # ends on it at column 1 through row 0. Row 3's tight closure is column
    # 2 alone, whose row 2 is tight nowhere else: no free column at distance
    # 0, so the numpy search takes over and ends at column 4 at distance 5.
    c = CostMatrix.from_array(HANDOVER[:5, :5])
    seed = DualPotentials(np.zeros(5), np.zeros(5))
    a, d, s = solve_seeded(c, seed)
    assert _solve_digest((a, d, s)) == _solve_digest(_plain_solves(monkeypatch, c, [seed])[1])
    assert (s.augment_searches, s.equality_searches, s.dual_update_steps, s.scanned_columns) == (2, 1, 1, 4)
    assert list(a.row_to_col) == [1, 0, 2, 4, 3]
    assert np.array_equal(d.u, [0.0, 0.0, 5.0, 5.0, 0.0])
    assert np.array_equal(d.v, [0.0, 0.0, -5.0, 0.0, 0.0])
    assert verify_certificate(c, a, d)


def test_dual_move_drops_the_equality_graph(monkeypatch):
    # As above, and row 3's search moves the duals. Row 6's search would end
    # on the graph at distance 0 (column 5, then free column 6 through row
    # 5), but the graph is gone, so the numpy search runs it.
    c = CostMatrix.from_array(HANDOVER)
    seed = DualPotentials(np.zeros(7), np.zeros(7))
    a, d, s = solve_seeded(c, seed)
    assert _solve_digest((a, d, s)) == _solve_digest(_plain_solves(monkeypatch, c, [seed])[1])
    assert (s.augment_searches, s.equality_searches, s.dual_update_steps) == (3, 1, 1)
    assert list(a.row_to_col) == [1, 0, 2, 4, 3, 6, 5]


def test_rows_with_a_negative_entry_stay_off_the_equality_graph(monkeypatch):
    # Zero seeds, reduced costs = C, feasible within FEAS_TOL. In the first
    # matrix the one free row, 1, builds the graph, but the row owning its
    # tight column 0 holds -1e-12: the numpy search pops column 2 at that
    # distance too before ending at free column 1 (3 columns, not 2). In the
    # second, free row 1 builds the graph and ends on it; free row 3 is tight
    # in free column 3 but holds -1e-12 itself, so the numpy search pops
    # column 4 first.
    tiny = 1e-12
    popped = [[0, 0, -tiny, 9], [0, 9, 9, 9], [9, 9, -2 * tiny, 9], [9, 9, 9, 0]]
    free = [[0, 0, 9, 9, 9], [0, 9, 9, 9, 9], [9, 9, 0, 0, 9],
            [9, 9, 9, 0, -tiny], [9, 9, 9, 9, -2 * tiny]]
    for rows, counters in ((popped, (1, 0, 3)), (free, (2, 1, 4))):
        c = CostMatrix.from_array(np.array(rows, dtype=np.float64))
        seed = DualPotentials(np.zeros(c.n), np.zeros(c.n))
        a, d, s = solve_seeded(c, seed)
        assert _solve_digest((a, d, s)) == _solve_digest(_plain_solves(monkeypatch, c, [seed])[1])
        assert (s.augment_searches, s.equality_searches, s.scanned_columns) == counters


@pytest.mark.parametrize("family", ["levels", "block", "signed-zero", "arbitrary"])
def test_one_pass_transfer_matches_row_loop(family, monkeypatch):
    # cold starts (u = 0, v the column minima) and, for "arbitrary", duals
    # with negative entries and -0.0 that force the exact recomputation
    rng = np.random.default_rng(59)
    pool = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
    for n in range(1, 41):
        monkeypatch.setattr(lap_core, "BLOCK_ENTRIES", n * int(rng.integers(1, 4)))
        if family == "arbitrary":
            values = rng.choice(pool, size=(n, n))
            # without -0.0 in the duals on odd n, so only mu < 0 forces it
            duals = pool if n % 2 == 0 else pool[pool != 0.0]
            u, v = rng.choice(duals, size=n), rng.choice(duals, size=n)
        else:
            values = _tied_instance(family, n, rng).values
            u, v = np.zeros(n), values.min(axis=0)
        row_to_col = rng.permutation(n)
        row_to_col[rng.random(n) < 0.4] = -1
        u_ref, v_ref = u.copy(), v.copy()
        _transfer_loop(values, u_ref, v_ref, row_to_col)
        lap_core._reduction_transfer(values, u, v, row_to_col)
        assert u.tobytes() == u_ref.tobytes() and v.tobytes() == v_ref.tobytes(), (family, n)

# --------------------------------------------------------- verify_certificate

def test_certificate_accepts_solver_output():
    rng = np.random.default_rng(2)
    c = _random_matrix(rng, 9)
    a, d, _ = solve_cold(c)
    result = verify_certificate(c, a, d)
    assert result
    assert result.reason is None


def test_certificate_rejects_infeasible_dual():
    rng = np.random.default_rng(4)
    c = _random_matrix(rng, 6)
    a, d, _ = solve_cold(c)
    spread = float(c.values.max() - c.values.min())
    bad = DualPotentials(d.u.copy(), d.v.copy())
    bad.u[2] += 2.0 * spread
    result = verify_certificate(c, a, bad)
    assert not result
    assert result.reason == "infeasible-dual"


def test_certificate_rejects_slack_assignment():
    c = CostMatrix.from_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    a, d, _ = solve_cold(c)
    swapped = Assignment(a.row_to_col[::-1].copy(), float(c.values[0, 1] + c.values[1, 0]))
    result = verify_certificate(c, swapped, d)
    assert not result
    assert result.reason == "slackness-violated"


def test_certificate_rejects_non_bijection():
    c = CostMatrix.from_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    a, d, _ = solve_cold(c)
    broken = Assignment(np.array([0, 0]), 0.0)
    result = verify_certificate(c, broken, d)
    assert not result
    assert result.reason == "not-bijection"


# -------------------------------------------------------------- center_duals

def test_center_duals_preserves_certificate_and_tightness():
    rng = np.random.default_rng(17)
    for n in (2, 3, 8, 20):
        c = _random_matrix(rng, n)
        a, d, _ = solve_cold(c)
        centered = center_duals(c, a, d)
        assert verify_certificate(c, a, centered)


def test_center_duals_creates_interior_margins():
    # after centering, non-assigned edges should usually have strictly
    # positive reduced cost in both the row and column of each assignment
    rng = np.random.default_rng(19)
    c = _random_matrix(rng, 30)
    a, d, _ = solve_cold(c)
    centered = center_duals(c, a, d)
    r = reduced_costs(c.values, centered.u, centered.v)
    assigned = r[np.arange(30), a.row_to_col]
    assert np.abs(assigned).max() <= 1e-9
    off = r + np.isclose(r, assigned[:, None]).astype(float) * 0  # shape check only
    assert (r >= -1e-9).all()


# ------------------------------------------------------------ property tests

@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    integer=st.booleans(),
    data=st.data(),
)
def test_property_exactness_and_certificates(n, integer, data):
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    c = _random_matrix(rng, n, integer=integer)
    oracle_cost, _ = brute_force(c)

    a, d, s = solve_cold(c)
    if integer:
        assert a.total_cost == oracle_cost
    else:
        assert a.total_cost == pytest.approx(oracle_cost, abs=1e-9)
    assert verify_certificate(c, a, d)

    # a fuzzed feasible seed: random u, columnwise-minimum completion
    u = rng.normal(0.0, 1.0, n)
    v = (c.values - u[:, None]).min(axis=0)
    a2, d2, s2 = solve_seeded(c, DualPotentials(u, v))
    assert a2.total_cost == pytest.approx(oracle_cost, abs=1e-9)
    assert verify_certificate(c, a2, d2)
    assert s2.greedy_matched + s2.free_rows == n
    assert s2.augment_searches == s2.free_rows


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_returned_duals_always_feasible(data):
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    n = data.draw(st.integers(min_value=1, max_value=12))
    rng = np.random.default_rng(seed)
    c = _random_matrix(rng, n)
    for result in (solve_cold(c), ):
        a, d, s = result
        r = reduced_costs(c.values, d.u, d.v)
        assert r.min() >= -1e-9
