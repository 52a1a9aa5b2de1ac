"""Exact linear assignment solving with optional injected dual seeds.

The solver is a shortest-augmenting-path method over reduced costs
r_ij = C_ij - u_i - v_j, and one driver serves both entry points. It takes
feasible potentials (u, v) and, for each column, the row at which that
column's reduced cost is smallest. The harvest gives each column, in index
order, to that row when the edge is tight (r <= EQ_TOL) and the row is still
free: the column reduction of Jonker & Volgenant (1987), applied to C - u.
An optional reduction transfer follows, then one augmenting search for each
row left free. solve_cold is the seed u = 0, v_j = min_i C_ij with the
transfer on; solve_seeded runs a caller's seed with the transfer off, so a
tight optimal seed passes through unchanged. Both return an optimal
assignment together with feasible potentials that certify it. LAPJV's
augmenting row reduction is not implemented.

Each augmenting search is Dijkstra's algorithm over reduced costs with the
tie rule of Jonker & Volgenant's LAPJV: when an unassigned column sits at the
minimal distance, the search ends there instead of popping a tied assigned
column first. The rule changes which optimal assignment comes back when
several are optimal, never its cost.

Searches that end at distance 0 have a second, exact path. At distance 0 the
search's relaxation ((C_i - u_i) + 0) - v is zero exactly where
(C_i - u_i) - v is, up to the sign of zero, and >= 0 elsewhere in a row with
no negative entry, so the search's pops, end column and traced path all
follow from the equality graph: each row's tight columns. The first search
that starts at distance exactly 0, before any dual move, builds that graph
once in one blocked pass; later searches that can end at distance 0 walk it
in Python instead of making about ten numpy calls per pop, and give the same
path, counters and duals bit for bit. The numpy search takes over from
scratch for any other search, the graph is dropped once a search moves the
duals, and it is not built when the rows average more than
EQUALITY_GRAPH_LIMIT tight columns, where walking it costs more.

Reduced costs are always evaluated as (C - u) - v in that association: when v
was produced as a columnwise min of (C - u), feasibility then holds exactly in
floating point, not merely up to rounding, and an entry of (C - u) - v is zero
exactly where C_ij - u_i attains its column's minimum.

Every pass that completes row potentials goes through one kernel,
column_minima: the column minima of C, of C - u or of (C - u) - v, on request
with the lowest row attaining each minimum. It reads C in row blocks (through
one reused buffer when it subtracts), so no pass builds an n x n temporary,
and its outputs are bit-identical to whole-matrix numpy reductions.
solve_cold takes its column argmins from it, solve_seeded its feasibility
check and harvest rows, and warmstart its completion (min_trick) and its
is_col_best feature. The density gate (equality_density)
counts near-zero entries through the same blocks (equality_count), and the
equality graph is built from them; the reduction transfer reads the
assigned rows in blocks of the same size.
"""

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleSeed, NonFinite, NonSquare, ShapeMismatch, TooLarge

FEAS_TOL = 1e-9
EQ_TOL = 1e-9
BRUTE_FORCE_LIMIT = 10
BRUTE_FORCE_CHUNK = 1 << 14  # permutations summed per vectorised block
# Passes over C (column_minima, and warmstart's and rowdualnet's row-wise
# passes) work through blocks of whole rows of about this many entries
# (256 KiB), so each block's temporaries stay in cache.
BLOCK_ENTRIES = 1 << 15
# The augment phase's equality graph is built only while the rows average at
# most this many tight columns; above it the numpy search is faster.
EQUALITY_GRAPH_LIMIT = 32

# phase keys reported in SolveStats.phase_times (nanoseconds)
PHASE_INIT = "init"
PHASE_GREEDY = "greedy"
PHASE_AUGMENT = "augment"


@dataclass
class CostMatrix:
    """Square dense cost matrix in float64, row-major.

    `sentinel` marks the finite value standing in for masked (absent) edges,
    or None for fully dense instances. Sentinels are ordinary large costs to
    the solver; they only matter to generators and reports.

    Construction is the one validation point: values become a contiguous
    float64 array (without a copy when they already are one), which must be
    square with n >= 1 (else NonSquare) and finite, as must the sentinel
    (else NonFinite).
    """

    values: np.ndarray
    sentinel: float | None = None

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise NonSquare(f"expected square matrix, got shape {values.shape}")
        if values.shape[0] < 1:
            raise NonSquare("empty matrix")
        if not np.isfinite(values).all():
            raise NonFinite("cost matrix contains NaN or infinity")
        if self.sentinel is not None and not np.isfinite(self.sentinel):
            raise NonFinite("sentinel must be finite")
        self.values = values

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_array(cls, arr, sentinel: float | None = None) -> "CostMatrix":
        return cls(arr, sentinel)


@dataclass
class DualPotentials:
    """Row/column potentials (u, v). Feasible when u_i + v_j <= C_ij."""

    u: np.ndarray
    v: np.ndarray

    def copy(self) -> "DualPotentials":
        return DualPotentials(self.u.copy(), self.v.copy())


@dataclass
class Assignment:
    """Permutation row -> column plus its total cost."""

    row_to_col: np.ndarray
    total_cost: float


@dataclass
class SolveStats:
    """Counters and per-phase wall times (ns) for one solve.

    greedy_matched counts rows the harvest matched before the augmentation
    phase: column j goes to its argmin row of the reduced costs when that
    edge is tight and the row is still free, columns in index order. A
    column whose argmin row is taken stays free even when another row is
    tight in it (the argmin takes the lowest tied row), so a seed with tied
    tight rows can match fewer rows than a row-by-row greedy pass would.
    free_rows = n - greedy_matched = augment_searches. dual_update_steps
    counts augmenting searches whose shortest-path length exceeded EQ_TOL,
    i.e. searches that actually moved the potentials; paths inside the
    equality subgraph leave the duals untouched and are not counted.
    scanned_columns sums, over the searches, the columns each one finished:
    every column it popped plus the unassigned column it ended at. It is the
    work that sets the augment phase's time. Under the LAPJV tie rule a
    search ends as soon as an unassigned column reaches the minimal
    distance, so it stops before scanning the assigned columns tied with it.
    equality_searches counts the searches resolved on the equality graph
    (see the module docstring) rather than by the numpy search; each of
    them ends at distance 0, leaves the duals as they are and adds its pops
    plus one to scanned_columns, as the numpy search would.
    """

    greedy_matched: int = 0
    free_rows: int = 0
    augment_searches: int = 0
    dual_update_steps: int = 0
    scanned_columns: int = 0
    equality_searches: int = 0
    phase_times: dict = field(default_factory=dict)


@dataclass
class CertificateResult:
    """Outcome of verify_certificate: ok flag plus a reason when not ok."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def reduced_costs(values: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(C - u) - v, the association every feasibility check relies on."""
    return (values - u[:, None]) - v[None, :]


def _row_blocks(values: np.ndarray, u: np.ndarray | None, v: np.ndarray | None):
    """Yield (lo, block): rows lo, lo + 1, ... of C - u, or of (C - u) - v,
    in blocks of about BLOCK_ENTRIES entries written into one reused buffer
    (so a block is valid until the next one is yielded). With u None (and no
    v) the blocks are views of C itself, which the caller must not write."""
    n_rows, n = values.shape
    step = max(1, BLOCK_ENTRIES // n)
    if u is None:
        for lo in range(0, n_rows, step):
            yield lo, values[lo : lo + step]
        return
    buf = np.empty((min(step, n_rows), n))
    for lo in range(0, n_rows, step):
        block = buf[: min(step, n_rows - lo)]
        np.subtract(values[lo : lo + step], u[lo : lo + step, None], out=block)
        if v is not None:
            block -= v
        yield lo, block


def column_minima(values: np.ndarray, u: np.ndarray | None, v: np.ndarray | None = None,
                  argmins: bool = False):
    """Column minima of C - u, or of (C - u) - v when v is given, in one pass.

    u None stands for u = 0 and reads C with no subtraction, which gives the
    same bits, since x - 0.0 == x for every finite x (-0.0 included).
    Returns (minima, rows): rows[j] is the lowest row attaining column j's
    minimum if `argmins` is set, None otherwise.

    Block minima merge through np.minimum, which keeps the later of two
    equal values as numpy's whole-matrix reduction does, and block argmins
    through a strict <, so earlier rows win ties: the outputs equal
    (C - u).min(axis=0) and .argmin(axis=0) bit for bit, signed zeros
    included.
    """
    minima = rows = None
    for lo, block in _row_blocks(values, u, v):
        low = block.min(axis=0)
        if argmins:
            arg = block.argmin(axis=0)
            if rows is None:
                rows = arg
            else:
                better = low < minima
                rows[better] = arg[better] + lo
        minima = low if minima is None else np.minimum(minima, low, out=minima)
    return minima, rows


def equality_count(values: np.ndarray, u: np.ndarray, v: np.ndarray, eps: float) -> int:
    """Number of entries of (C - u) - v whose magnitude is below eps, counted
    in one blocked pass. When v is the completion of u every entry is >= 0
    with column minimum 0, so this is the number of equality edges."""
    count = 0
    for _, block in _row_blocks(values, u, v):
        np.abs(block, out=block)
        count += np.count_nonzero(block < eps)
    return count


def total_cost_of(values: np.ndarray, row_to_col: np.ndarray) -> float:
    return float(values[np.arange(values.shape[0]), row_to_col].sum())


def brute_force(c: CostMatrix) -> tuple[float, np.ndarray]:
    """Exhaustive minimum over all permutations, n <= 10.

    Ties are broken toward the lexicographically smallest permutation, which
    falls out of enumerating permutations in lexicographic order and keeping
    only strict improvements. Permutations are summed in blocks of
    BRUTE_FORCE_CHUNK; each row of a block is summed along its contiguous
    axis, which gives the same bits as summing one permutation at a time.
    """
    n = c.n
    if n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"brute force limited to n <= {BRUTE_FORCE_LIMIT}, got {n}")
    values = c.values
    rows = np.arange(n)
    best_cost = np.inf
    best_perm = None
    perms = itertools.permutations(range(n))
    while block := list(itertools.islice(perms, BRUTE_FORCE_CHUNK)):
        block = np.array(block, dtype=np.int64)
        costs = values[rows, block].sum(axis=1)
        k = int(np.argmin(costs))
        if costs[k] < best_cost:
            best_cost = float(costs[k])
            best_perm = block[k].copy()
    return best_cost, best_perm


def verify_certificate(
    c: CostMatrix, assignment: Assignment, duals: DualPotentials
) -> CertificateResult:
    """Check that (assignment, duals) certify optimality.

    Three conditions, reported in order of failure: the duals are feasible
    within FEAS_TOL, the assignment is a bijection, and every assigned edge
    is tight within EQ_TOL (scaled by the entry magnitude, matching the
    solver's own guarantee).
    """
    values = c.values
    n = c.n
    r = reduced_costs(values, duals.u, duals.v)
    if r.min() < -FEAS_TOL:
        return CertificateResult(False, "infeasible-dual")
    perm = assignment.row_to_col
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        return CertificateResult(False, "not-bijection")
    assigned = values[np.arange(n), perm]
    slack = np.abs(r[np.arange(n), perm])
    if (slack > EQ_TOL * np.maximum(1.0, np.abs(assigned))).any():
        return CertificateResult(False, "slackness-violated")
    return CertificateResult(True, None)


def _reduction_transfer(values, u, v, row_to_col):
    """Shift slack from assigned rows onto their columns, rows in index order.

    For an assigned row i with column j1, the second-best reduced cost
    mu = min_{j != j1}(C_ij - v_j) - u_i moves into u_i while v_j1 drops by
    the same amount, keeping the assigned edge tight and the duals feasible.

    One blocked pass over the assigned rows finds, under the starting v,
    each row's smallest C_ij - v_j off its own column and a column attaining
    it; a scalar loop in row order then applies the moves. That is exact:
    while every mu so far is >= 0, a moved column's entries only rise, so a
    row whose minimum sits at a column no earlier row moved keeps that
    minimum. In the cold start (u = 0, v the column minima) every entry of
    C - v is >= 0, so every mu is. A row whose minimum column was moved is
    recomputed from the current v as a plain row loop would, and so is every
    row after a mu < 0. The sign of a zero minimum (which depends on which
    zeros tie) moves no bit of u or v unless they hold a -0.0; then every
    row is recomputed.
    """
    n = values.shape[0]
    if n == 1:
        return
    rows = np.flatnonzero(row_to_col >= 0)
    cols = row_to_col[rows]
    args = np.empty(len(rows), dtype=np.int64)
    mins = np.empty(len(rows))
    step = max(1, BLOCK_ENTRIES // n)
    buf = np.empty((min(step, len(rows)), n))
    for lo in range(0, len(rows), step):
        block = buf[: len(rows[lo : lo + step])]
        local = np.arange(len(block))
        np.subtract(values[rows[lo : lo + step]], v, out=block)
        block[local, cols[lo : lo + step]] = np.inf
        args[lo : lo + step] = block.argmin(axis=1)
        mins[lo : lo + step] = block[local, args[lo : lo + step]]
    # Python floats do the same IEEE arithmetic as numpy's float64 scalars
    uu, vv = u.tolist(), v.tolist()
    moved = [False] * n
    duals = np.concatenate((u, v))
    exact = bool(np.signbit(duals[duals == 0.0]).any())
    for i, j1, m, a in zip(rows.tolist(), cols.tolist(), mins.tolist(), args.tolist()):
        if exact or moved[a]:
            slack = values[i] - v
            slack[j1] = np.inf
            m = float(slack.min())
        mu = m - uu[i]
        uu[i] += mu
        vv[j1] -= mu
        v[j1] = vv[j1]
        moved[j1] = mu > 0
        exact = exact or mu < 0
    u[:] = uu


def center_duals(
    c: CostMatrix,
    assignment: Assignment,
    duals: DualPotentials,
    sweeps: int = 3,
) -> DualPotentials:
    """Move optimal duals toward the interior of the optimal dual face.

    Solver-returned potentials sit at a vertex of the dual polytope, where
    many non-assigned edges are accidentally tight. Coordinate sweeps place
    each u_i at the midpoint of its feasible interval (keeping the assigned
    edge tight by moving v_{sigma(i)} in lockstep), which drives non-assigned
    slacks strictly positive wherever the instance allows. Seeds built from
    the result have an equality subgraph that is nearly the assignment alone,
    which is what makes them clean greedy-phase oracles and stable regression
    labels. Optimality is preserved: assigned edges stay tight and
    feasibility is re-checked edge by edge.
    """
    values = c.values
    n = c.n
    perm = assignment.row_to_col
    u = duals.u.copy()
    v = duals.v.copy()
    for _ in range(sweeps):
        for i in range(n):
            j0 = perm[i]
            col = values[:, j0] - u
            col[i] = np.inf
            lo = values[i, j0] - col.min()
            row = values[i] - v
            row[j0] = np.inf
            hi = row.min()
            if np.isfinite(lo) and np.isfinite(hi) and lo <= hi:
                u[i] = 0.5 * (lo + hi)
                v[j0] = values[i, j0] - u[i]
    return DualPotentials(u, v)


def _trace_path(values, u, v, end, cols, rows, mus):
    """Alternating path of a finished search as (column, row) pairs, end first.

    rows[0] is the free row at distance mus[0] = 0; rows[p] for p >= 1 owns
    cols[p - 1], popped at distance mus[p]. A column's predecessor is the
    earliest of the rows relaxed before it was popped that reached its final
    distance. The candidates are recomputed with the search's own arithmetic,
    so the comparison is exact; this replaces a predecessor array rewritten
    on every pop. Must run before the duals move.
    """
    path = []
    j, t = end, len(rows)
    while True:
        r = rows[:t]
        p = int(np.argmin(((values[r, j] - u[r]) + mus[:t]) - v[j]))
        path.append((j, rows[p]))
        if p == 0:
            return path
        j, t = cols[p - 1], p


def _equality_graph(values, u, v):
    """The equality graph of (C - u) - v, or None when it is too dense.

    Returns (tight, nonneg): tight[i] lists, ascending, the columns where
    row i's reduced cost is exactly 0.0, and nonneg[i] says the row has no
    negative entry. None once the rows read so far average more than
    EQUALITY_GRAPH_LIMIT tight columns (a constant matrix makes every entry
    tight), where walking the lists in Python costs more than the numpy
    search they stand in for; stopping at the first such block keeps a
    declined build to a fraction of a pass.
    """
    n = values.shape[0]
    flats, nonneg = [], []
    size = 0
    for lo, block in _row_blocks(values, u, v):
        nonneg += (block.min(axis=1) >= 0.0).tolist()
        flat = np.flatnonzero(block == 0.0)
        size += len(flat)
        if size > EQUALITY_GRAPH_LIMIT * (lo + len(block)):
            return None
        flats.append(flat + lo * n)
    flat = np.concatenate(flats)  # row-major positions, so rows in order
    bounds = np.searchsorted(flat, np.arange(0, n * n + 1, n)).tolist()
    cols = (flat % n).tolist()
    return [cols[a:b] for a, b in zip(bounds, bounds[1:])], nonneg


def _equality_search(graph, owner, f):
    """A search from free row f that ends at distance 0, run on the graph.

    Returns (path, pops) exactly as the numpy search would find them, or
    None when f or a popped column's row has a negative entry, or the tight
    columns reachable from f are all assigned. Like the numpy search at
    distance 0 (see the module docstring), it pops the lowest-index reached
    column first (a heap) and ends at the lowest-index free column reached,
    checked before the first pop and after each; like _trace_path, it takes
    as a column's predecessor the first relaxed row tight in it.
    """
    tight, nonneg = graph
    if not nonneg[f]:
        return None
    pred, heap, popped = {}, [], {}  # popped: row -> the column popped for it
    i = f
    while True:
        for c in tight[i]:
            if c not in pred:
                pred[c] = i
                if owner[c] < 0:  # the lowest-index free column reached
                    path = []
                    while True:
                        i = pred[c]
                        path.append((c, i))
                        if i == f:
                            return path, len(popped)
                        c = popped[i]
                heapq.heappush(heap, c)
        if not heap:
            return None
        j = heapq.heappop(heap)
        i = owner[j]
        if not nonneg[i]:
            return None
        popped[i] = j


def _dijkstra(values, u, v, col_to_row, f, d_open, j, stats):
    """The numpy search from free row f: (its alternating path, whether
    it moved the duals).

    d_open holds the distances (C_f - u_f) - v and j its argmin. Each pop
    takes the lowest-index open column at the minimal distance mu, except
    that an unassigned column at mu ends the search at once (the LAPJV rule;
    any column at mu is a valid pop, so the optimum is the same, but on ties
    the returned assignment can differ). A popped column's row is relaxed
    over its contiguous row of C; finished columns sit at +inf in the open
    distances and at -inf in the column potentials used for relaxing, so
    the relaxation cannot reopen them. The potentials move, and
    stats.dual_update_steps counts the search, only when the path length
    exceeds EQ_TOL.
    """
    free_cols = np.flatnonzero(col_to_row < 0)
    v_open = v.copy()
    alt = np.empty_like(v)
    cols, rows, mus = [], [f], [0.0]
    mu = d_open[j]
    while True:
        d_free = d_open[free_cols]
        k = d_free.argmin()
        if d_free[k] == mu:
            end = free_cols[k]
            break
        i1 = col_to_row[j]
        cols.append(j)
        rows.append(i1)
        mus.append(mu)
        d_open[j] = np.inf
        v_open[j] = -np.inf
        np.subtract(values[i1], u[i1], out=alt)
        alt += mu
        alt -= v_open
        np.minimum(d_open, alt, out=d_open)
        j = d_open.argmin()
        mu = d_open[j]
    stats.scanned_columns += len(cols) + 1
    if not cols:
        # ended before any pop: the path is the one edge (end, f), and
        # only u_f moves (by mu - 0, so by mu exactly)
        path = [(end, f)]
        if mu > EQ_TOL:
            stats.dual_update_steps += 1
            u[f] += mu
        return path, mu > EQ_TOL
    rows = np.array(rows, dtype=np.int64)
    mus = np.array(mus, dtype=np.float64)
    path = _trace_path(values, u, v, end, cols, rows, mus)
    if mu > EQ_TOL:
        stats.dual_update_steps += 1
        delta = mu - mus
        u[rows] += delta
        v[cols] -= delta[1:]
    return path, mu > EQ_TOL


def _shortest_path_augment(values, u, v, row_to_col, col_to_row, free_rows, stats):
    """Resolve each free row with a shortest augmenting path search.

    The first search whose first popped distance is exactly 0.0, before any
    dual move, builds the equality graph of the current duals; from then on
    each search first tries to end at distance 0 on it and runs the numpy
    search from scratch when it cannot. A search that moves the duals drops
    the graph for the rest of the solve. stats.scanned_columns adds the
    columns each search finished, its end column included.
    """
    graph = None  # not built yet; False once declined or dropped
    owner = None  # col_to_row as a list, kept while the graph lives
    for f in free_rows:
        stats.augment_searches += 1
        found = graph and _equality_search(graph, owner, f)
        if not found:
            d_open = (values[f] - u[f]) - v
            j = d_open.argmin()
            if graph is None and d_open[j] == 0.0:
                graph = _equality_graph(values, u, v) or False
                owner = graph and col_to_row.tolist()
                found = graph and _equality_search(graph, owner, f)
        if found:
            path, pops = found
            stats.equality_searches += 1
            stats.scanned_columns += pops + 1
        else:
            path, moved = _dijkstra(values, u, v, col_to_row, f, d_open, j, stats)
            if moved:
                graph = owner = False
        for j, i in path:
            col_to_row[j] = i
            row_to_col[i] = j
            if owner:
                owner[j] = i


def _solve_from(values, u, v, argmins, transfer, t0, t1):
    """The one solver driver: harvest, optional reduction transfer, augment.

    (u, v) are feasible potentials, updated in place; argmins[j] is the row
    of column j's smallest reduced cost. The harvest (see
    SolveStats.greedy_matched) gives each row the first tight column that
    names it, which is what a loop over the columns in index order does.
    The caller's init phase ran from t0 to t1; the greedy phase starts at t1.
    """
    n = values.shape[0]
    row_to_col = np.full(n, -1, dtype=np.int64)
    col_to_row = np.full(n, -1, dtype=np.int64)
    tight = np.flatnonzero(((values[argmins, np.arange(n)] - u[argmins]) - v) <= EQ_TOL)
    rows, first = np.unique(argmins[tight], return_index=True)
    row_to_col[rows] = tight[first]
    col_to_row[tight[first]] = rows
    if transfer:
        _reduction_transfer(values, u, v, row_to_col)
    free = np.flatnonzero(row_to_col < 0).tolist()
    t2 = time.perf_counter_ns()

    stats = SolveStats(greedy_matched=n - len(free), free_rows=len(free))
    _shortest_path_augment(values, u, v, row_to_col, col_to_row, free, stats)
    t3 = time.perf_counter_ns()

    stats.phase_times = {PHASE_INIT: t1 - t0, PHASE_GREEDY: t2 - t1, PHASE_AUGMENT: t3 - t2}
    assignment = Assignment(row_to_col, total_cost_of(values, row_to_col))
    return assignment, DualPotentials(u, v), stats


def solve_cold(c: CostMatrix) -> tuple[Assignment, DualPotentials, SolveStats]:
    """Solve from scratch: the driver seeded with u = 0 and column minima.

    v_j = min_i C_ij makes each column's argmin edge tight, so the harvest
    is plain column reduction; reduction transfer then runs, and every row
    left free goes through an augmenting search. greedy_matched therefore
    reports the column-reduction match rate, the quantity the warm
    strategies are benchmarked against.
    """
    values = c.values
    n = c.n
    t0 = time.perf_counter_ns()
    u = np.zeros(n, dtype=np.float64)
    t1 = time.perf_counter_ns()
    _, argmins = column_minima(values, None, argmins=True)
    v = values[argmins, np.arange(n)]
    return _solve_from(values, u, v, argmins, True, t0, t1)


def solve_seeded(c: CostMatrix, seed: DualPotentials) -> tuple[Assignment, DualPotentials, SolveStats]:
    """Solve starting from injected feasible potentials.

    The driver harvests the seed's tight edges, each column to its argmin
    row of the reduced costs when that row is free (see
    SolveStats.greedy_matched), then the augmentation phase finishes the
    matching with the same LAPJV tie rule as solve_cold. There is no
    reduction transfer, so an optimal seed's potentials come back
    unchanged. Raises ShapeMismatch for a seed of the wrong length,
    NonFinite when u or v holds NaN or infinity (a NaN would slip through
    the feasibility comparison), and InfeasibleSeed when the seed violates
    feasibility beyond FEAS_TOL. The feasibility check and the harvest rows
    come from one column_minima pass over (C - u) - v.
    """
    values = c.values
    n = c.n
    if seed.u.shape != (n,) or seed.v.shape != (n,):
        raise ShapeMismatch(
            f"seed shapes {seed.u.shape}/{seed.v.shape} do not match n={n}"
        )
    t0 = time.perf_counter_ns()
    u = np.asarray(seed.u, dtype=np.float64).copy()
    v = np.asarray(seed.v, dtype=np.float64).copy()
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise NonFinite("seed potentials contain NaN or infinity")
    r_min, argmins = column_minima(values, u, v, argmins=True)
    if r_min.min() < -FEAS_TOL:
        raise InfeasibleSeed(f"seed violates feasibility by {-float(r_min.min()):.3e}")
    t1 = time.perf_counter_ns()
    return _solve_from(values, u, v, argmins, False, t0, t1)
