"""Experiment harness: strategy grids, statistics, and sensitivity sweeps.

STRATEGIES is the one table of seed strategies, read by the benchmark and by
`dualseed solve`. run_cells runs a spec's strategies over (size, trial,
instance) cells with monotonic timing and cross-checks that all strategies
report the same optimal cost; run_experiment and every sweep but the noise
sweep (which seeds the solver directly) feed it their cells. summarize turns
raw records into mean-of-ratios speedups with normal-approximation
confidence intervals; breakdown_table splits wall time into the five
pipeline stages. The sweeps vary seed noise, sparsity, the refinement width
K, and row permutations.

Timing protocol: one untimed warm-up run per (strategy, size) before the
timed trials; all timed runs for one instance execute sequentially.
"""

import dataclasses
import json
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DualseedError, InsufficientTrials, InvalidSetting
from ._rng import STREAM_NOISE, STREAM_PERMUTATION, substream
from .lap_core import CostMatrix, solve_cold, solve_seeded
from .warmstart import (
    FEATURE_DIM,
    STAGE_FALLBACK,
    STAGE_FEATURES,
    STAGE_MIN_TRICK,
    STAGE_MODEL,
    STAGE_NAMES,
    STAGE_SOLVER,
    PipelineConfig,
    PipelineReport,
    equality_density,
    min_trick,
    run_pipeline,
)
from . import baselines, datagen, rowdualnet


@dataclass(frozen=True)
class Strategy:
    """One seed strategy: whether it reads the feature stage, and
    make_predict(c, prep) -> predict(feats) -> row potentials.

    make_predict runs before the pipeline's timed stages. prep holds what was
    prepared for the instance's size: "seed" and "model", plus "linreg" and
    "median" once fitted. make_predict None marks the cold solve, which runs
    no pipeline stage.
    """

    needs_features: bool
    make_predict: Callable | None


def _prepared(prep: dict, key: str, missing: str):
    value = prep.get(key)
    if value is None:
        raise DualseedError(missing)
    return value


def _neural(c, prep):
    model = _prepared(prep, "model", "neural needs a model checkpoint")
    return lambda feats: rowdualnet.forward(model, feats, c)


def _linreg(c, prep):
    weights = _prepared(prep, "linreg", "linreg needs weights fitted on a bench corpus")
    return lambda feats: baselines.seed_linreg(feats, weights)


def _median(c, prep):
    u = _prepared(prep, "median", "median needs the u* of a bench corpus")
    return lambda feats: u


def _oracle(c, prep):
    # Solver-vertex duals: their completion reproduces the seed exactly, so
    # the seeded solve performs zero dual updates.
    u_star = datagen.gen_labels(c, center=False).u_star
    return lambda feats: u_star


STRATEGIES = {
    "cold": Strategy(False, None),
    "neural": Strategy(True, _neural),
    "row_mean": Strategy(False, lambda c, prep: lambda feats: baselines.seed_row_mean(c)),
    "row_min": Strategy(False, lambda c, prep: lambda feats: baselines.seed_row_min(c)),
    "random": Strategy(False, lambda c, prep: lambda feats: baselines.seed_random(c, prep["seed"])),
    "linreg": Strategy(True, _linreg),
    "median": Strategy(False, _median),
    "subgradient": Strategy(False, lambda c, prep: lambda feats: baselines.seed_subgradient(c)),
    "optimal_oracle": Strategy(False, _oracle),
}
ALL_STRATEGIES = tuple(STRATEGIES)

SUMMARY_HEADER = (
    "strategy,n,trials,mean_ratio,ci_lo,ci_hi,median_ratio,cv,"
    "min_wall_ns,max_wall_ns,mean_greedy_match_rate,augment_reduction_vs_cold,fallback_rate"
)
BREAKDOWN_HEADER = (
    "n,features_ms,features_pct,model_ms,model_pct,min_trick_ms,min_trick_pct,"
    "fallback_check_ms,fallback_check_pct,solver_ms,solver_pct"
)

PREP_CORPUS_SIZE = 20
PREP_STREAM_BASE = 100_000


@dataclass
class ExperimentSpec:
    """One benchmark grid: generator x sizes x trials x strategies."""

    generator: str = "dense"
    sizes: tuple = (64,)
    trials: int = 3
    strategies: tuple = ("cold",)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    checkpoint: str | None = None
    seed: int = 0
    block_groups: int | None = None
    block_noise: float | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidSetting("trials must be >= 1")
        if min(self.sizes, default=0) < 1:
            raise InvalidSetting("sizes must be non-empty and >= 1")
        if not self.strategies:
            raise InvalidSetting("strategies must be non-empty")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise InvalidSetting(f"unknown strategy {s!r} (choose from {ALL_STRATEGIES})")
        if not (self.generator in datagen.GENERATORS or self.generator.startswith("file:")):
            raise InvalidSetting("generator must be dense, block, or file:<path>")


def _csv_tuple(cast):
    return lambda text: tuple(cast(part.strip()) for part in text.split(","))


# spec-file key -> (cast from the text value, "spec" or "pipeline" field)
SPEC_FIELDS = {
    "generator": (str, "spec"),
    "sizes": (_csv_tuple(int), "spec"),
    "trials": (int, "spec"),
    "strategies": (_csv_tuple(str), "spec"),
    "checkpoint": (str, "spec"),
    "seed": (int, "spec"),
    "eps": (float, "pipeline"),
    "tau": (float, "pipeline"),
    "block_groups": (int, "spec"),
    "block_noise": (float, "spec"),
}
SPEC_KEYS = tuple(SPEC_FIELDS)


def parse_spec(text: str) -> ExperimentSpec:
    """Parse key=value lines (# comments allowed) into an ExperimentSpec.

    A malformed line, an unknown key or a bad value raises InvalidSetting.
    """
    kwargs = {"spec": {}, "pipeline": {}}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InvalidSetting(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in SPEC_FIELDS:
            raise InvalidSetting(f"line {lineno}: unknown key {key!r} (known: {', '.join(SPEC_KEYS)})")
        cast, target = SPEC_FIELDS[key]
        try:
            kwargs[target][key] = cast(value)
        except ValueError as exc:
            raise InvalidSetting(f"line {lineno}: {key}: {exc}") from None
    return ExperimentSpec(pipeline=PipelineConfig(**kwargs["pipeline"]), **kwargs["spec"])


@dataclass
class RunRecord:
    """One timed strategy run on one instance."""

    strategy: str
    n: int
    trial: int
    total_cost: float | None = None
    wall_ns: int = 0
    features_ns: int = 0
    model_ns: int = 0
    min_trick_ns: int = 0
    fallback_check_ns: int = 0
    solver_ns: int = 0
    density_rho: float | None = None
    fallback_triggered: bool | None = None
    greedy_matched: int = 0
    free_rows: int = 0
    augment_searches: int = 0
    dual_update_steps: int = 0
    greedy_match_rate: float = 0.0
    error: str | None = None


def _record_from_report(strategy, n, trial, report) -> RunRecord:
    st = report.stage_times
    stats = report.solve_stats
    return RunRecord(
        strategy=strategy,
        n=n,
        trial=trial,
        total_cost=report.total_cost,
        wall_ns=sum(st.values()),
        features_ns=st[STAGE_FEATURES],
        model_ns=st[STAGE_MODEL],
        min_trick_ns=st[STAGE_MIN_TRICK],
        fallback_check_ns=st[STAGE_FALLBACK],
        solver_ns=st[STAGE_SOLVER],
        density_rho=report.density_rho,
        fallback_triggered=report.fallback_triggered,
        greedy_matched=stats.greedy_matched,
        free_rows=stats.free_rows,
        augment_searches=stats.augment_searches,
        dual_update_steps=stats.dual_update_steps,
        greedy_match_rate=stats.greedy_matched / n,
    )


def generate_instance(spec: ExperimentSpec, n: int, trial: int) -> CostMatrix:
    """The instance shared by every strategy in one (size, trial) cell."""
    if spec.generator.startswith("file:"):
        return datagen.read_matrix(spec.generator[len("file:") :])
    return datagen.generate(
        spec.generator, n, spec.seed, trial, spec.block_groups, spec.block_noise
    )


def _corpus(spec: ExperimentSpec, n: int, count: int) -> list:
    """Labelled instances from streams PREP_STREAM_BASE on, so no corpus
    matrix is a benchmarked one; a file: generator gives its one matrix."""
    if spec.generator.startswith("file:"):
        count = 1
    return [
        datagen.gen_labels(generate_instance(spec, n, PREP_STREAM_BASE + i))
        for i in range(count)
    ]


def run_strategy(name: str, c: CostMatrix, prep: dict, cfg: PipelineConfig) -> tuple:
    """Solve c with the named strategy: (assignment, PipelineReport).

    A cold solve times only the solver stage and reports no gate.
    """
    strategy = STRATEGIES[name]
    if strategy.make_predict is None:
        t0 = time.perf_counter_ns()
        assignment, _, stats = solve_cold(c)
        stage_times = dict.fromkeys(STAGE_NAMES, 0)
        stage_times[STAGE_SOLVER] = time.perf_counter_ns() - t0
        report = PipelineReport(stage_times, None, None, stats, assignment.total_cost)
        return assignment, report
    predict = strategy.make_predict(c, prep)
    return run_pipeline(c, predict, cfg, needs_features=strategy.needs_features)


def _load_model(spec: ExperimentSpec):
    if "neural" not in spec.strategies:
        return None
    if spec.checkpoint is None:
        raise InvalidSetting("neural strategy requires a checkpoint path")
    return rowdualnet.load_checkpoint(spec.checkpoint, expect_input_dim=FEATURE_DIM)


def _prepare_size(spec: ExperimentSpec, n: int, model) -> dict:
    """Untimed per-size prep: the seed, the model and the fitted baselines."""
    prep = {"seed": spec.seed, "model": model}
    fitted = {"linreg", "median"} & set(spec.strategies)
    if fitted:
        corpus = _corpus(spec, n, PREP_CORPUS_SIZE)
        if "linreg" in fitted:
            prep["linreg"] = baselines.train_linreg(corpus)
        if "median" in fitted:
            prep["median"] = baselines.seed_learned_median(
                np.stack([inst.u_star for inst in corpus])
            )
    return prep


def _prepare_sizes(spec: ExperimentSpec, model) -> dict:
    return {n: _prepare_size(spec, n, model) for n in spec.sizes}


def _grid_cells(spec: ExperimentSpec, preps: dict, transform=None):
    """(n, trial, instance, preps[n]) over the spec's sizes and trials;
    transform(instance, trial) -> instance derives what is benchmarked."""
    for n in spec.sizes:
        for trial in range(spec.trials):
            c = generate_instance(spec, n, trial)
            yield n, trial, c if transform is None else transform(c, trial), preps[n]


def run_cells(spec: ExperimentSpec, cells) -> list:
    """Run every strategy of spec on each (n, trial, instance, prep) cell.

    Each strategy runs once untimed before its first timed run at each size.
    A DualseedError becomes an error record; the strategies that succeed on
    a cell must agree on its optimal cost, or DualseedError is raised.
    """
    records = []
    warmed = set()
    for n, trial, c, prep in cells:
        cell_costs = {}
        for name in spec.strategies:
            try:
                if (name, n) not in warmed:
                    run_strategy(name, c, prep, spec.pipeline)
                    warmed.add((name, n))
                _, report = run_strategy(name, c, prep, spec.pipeline)
                rec = _record_from_report(name, n, trial, report)
                cell_costs[name] = rec.total_cost
            except DualseedError as exc:
                rec = RunRecord(strategy=name, n=n, trial=trial, error=str(exc))
            records.append(rec)
        if len(cell_costs) > 1:
            costs = list(cell_costs.values())
            if max(costs) - min(costs) > 1e-9 * max(1.0, abs(max(costs))):
                raise DualseedError(
                    f"cost disagreement at n={n} trial={trial}: {cell_costs}"
                )
    return records


def run_experiment(spec: ExperimentSpec, out_path: str | None = None) -> list:
    """Run the grid; returns records (and writes line-delimited JSON)."""
    records = run_cells(spec, _grid_cells(spec, _prepare_sizes(spec, _load_model(spec))))
    if out_path is not None:
        write_records(out_path, records, spec)
    return records


def write_records(path: str, records: list, spec: ExperimentSpec | None = None):
    """Line-delimited JSON; the first line is a metadata record."""
    with open(path, "w") as fh:
        meta = {"_meta": {"warmup_runs": 1}}
        if spec is not None:
            meta["_meta"]["generator"] = spec.generator
            meta["_meta"]["seed"] = spec.seed
        fh.write(json.dumps(meta) + "\n")
        for rec in records:
            fh.write(json.dumps(dataclasses.asdict(rec)) + "\n")


def read_records(path: str) -> list:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "_meta" in obj:
                continue
            records.append(RunRecord(**obj))
    return records


@dataclass
class SummaryRow:
    strategy: str
    n: int
    trials: int
    mean_ratio: float | None
    ci_lo: float | None
    ci_hi: float | None
    median_ratio: float | None
    cv: float
    min_wall_ns: int
    max_wall_ns: int
    mean_greedy_match_rate: float
    augment_reduction_vs_cold: float | None
    fallback_rate: float | None


def summarize(records: list) -> list:
    """Per (strategy, n) statistics against the cold runs of the same cells.

    Speedup is the mean of per-instance ratios T_cold / T_strategy with a
    normal-approximation 95% CI (sample std); the coefficient of variation
    of raw wall times uses the population std.
    """
    ok = [r for r in records if r.error is None]
    cold_wall = {(r.n, r.trial): r.wall_ns for r in ok if r.strategy == "cold"}
    cold_aug = {(r.n, r.trial): r.augment_searches for r in ok if r.strategy == "cold"}
    rows = []
    strategies = sorted({r.strategy for r in ok}, key=lambda s: ALL_STRATEGIES.index(s))
    for strategy in strategies:
        for n in sorted({r.n for r in ok if r.strategy == strategy}):
            cell = [r for r in ok if r.strategy == strategy and r.n == n]
            walls = np.array([r.wall_ns for r in cell], dtype=np.float64)
            ratios = np.array(
                [
                    cold_wall[(n, r.trial)] / r.wall_ns
                    for r in cell
                    if (n, r.trial) in cold_wall and r.wall_ns > 0
                ]
            )
            if ratios.size:
                if ratios.size < 2:
                    raise InsufficientTrials(
                        f"{strategy} at n={n}: {ratios.size} ratio(s); CI needs >= 2"
                    )
                mean_ratio = float(ratios.mean())
                half = 1.96 * float(ratios.std(ddof=1)) / np.sqrt(ratios.size)
                ci_lo, ci_hi = mean_ratio - half, mean_ratio + half
                median_ratio = float(np.median(ratios))
            else:
                mean_ratio = ci_lo = ci_hi = median_ratio = None
            aug = [
                1.0 - r.augment_searches / cold_aug[(n, r.trial)]
                for r in cell
                if (n, r.trial) in cold_aug and cold_aug[(n, r.trial)] > 0
            ]
            fallbacks = [r.fallback_triggered for r in cell if r.fallback_triggered is not None]
            rows.append(
                SummaryRow(
                    strategy=strategy,
                    n=n,
                    trials=len(cell),
                    mean_ratio=mean_ratio,
                    ci_lo=ci_lo,
                    ci_hi=ci_hi,
                    median_ratio=median_ratio,
                    cv=float(walls.std() / walls.mean()) if walls.size else 0.0,
                    min_wall_ns=int(walls.min()) if walls.size else 0,
                    max_wall_ns=int(walls.max()) if walls.size else 0,
                    mean_greedy_match_rate=float(np.mean([r.greedy_match_rate for r in cell])),
                    augment_reduction_vs_cold=float(np.mean(aug)) if aug else None,
                    fallback_rate=float(np.mean(fallbacks)) if fallbacks else None,
                )
            )
    return rows


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.6f}"
    return str(x)


def table_csv(header: str, rows: list, formats: dict | None = None) -> str:
    """CSV text: the header line, then one line per row.

    A row is a dict or a dataclass holding every header column; each cell is
    written with its column's format spec from `formats`, or with _fmt.
    """
    columns = header.split(",")
    formats = formats or {}
    lines = [header]
    for row in rows:
        cells = row if isinstance(row, dict) else vars(row)
        lines.append(",".join(
            format(cells[col], formats[col]) if col in formats else _fmt(cells[col])
            for col in columns
        ))
    return "\n".join(lines) + "\n"


def summary_csv(rows: list) -> str:
    return table_csv(SUMMARY_HEADER, rows)


def breakdown_table(records: list) -> list:
    """Mean per-stage milliseconds and percentage share, one row per n.

    Only full-pipeline records qualify; cold or errored records are dropped.
    Percentages sum to 100 within 0.1.
    """
    eligible = [
        r
        for r in records
        if r.error is None
        and (r.features_ns or r.model_ns) and r.min_trick_ns and r.solver_ns
    ]
    if not eligible:
        raise InvalidSetting("no full-pipeline records to break down")
    rows = []
    for n in sorted({r.n for r in eligible}):
        cell = [r for r in eligible if r.n == n]
        means = {
            STAGE_FEATURES: np.mean([r.features_ns for r in cell]),
            STAGE_MODEL: np.mean([r.model_ns for r in cell]),
            STAGE_MIN_TRICK: np.mean([r.min_trick_ns for r in cell]),
            STAGE_FALLBACK: np.mean([r.fallback_check_ns for r in cell]),
            STAGE_SOLVER: np.mean([r.solver_ns for r in cell]),
        }
        total = sum(means.values())
        row = {"n": n}
        for stage in STAGE_NAMES:
            row[f"{stage}_ms"] = means[stage] / 1e6
            row[f"{stage}_pct"] = 100.0 * means[stage] / total
        rows.append(row)
    return rows


def breakdown_csv(rows: list) -> str:
    return table_csv(BREAKDOWN_HEADER, rows, {f"{stage}_pct": ".3f" for stage in STAGE_NAMES})


def sweep_noise(spec: ExperimentSpec, sigmas: list) -> list:
    """Perturb exact solver duals with Gaussian noise scaled by range(C).

    The seed is u* + N(0, (sigma*range)^2) completed by the columnwise
    minimum; the fallback gate is disabled so the solver always consumes the
    seed. Rows report mean equality density and mean dual updates per sigma.
    """
    insts = []
    for n in spec.sizes:
        for trial in range(spec.trials):
            c = generate_instance(spec, n, trial)
            labels = datagen.gen_labels(c, center=False)
            insts.append((c, labels, trial))
    rows = []
    for k, sigma in enumerate(sorted(sigmas)):
        rhos, steps = [], []
        for idx, (c, labels, trial) in enumerate(insts):
            rng = substream(spec.seed, STREAM_NOISE, index=k * len(insts) + idx)
            spread = float(c.values.max() - c.values.min())
            u_noisy = labels.u_star + rng.normal(0.0, sigma * spread, c.n)
            duals = min_trick(c, u_noisy)
            rhos.append(equality_density(c, duals, spec.pipeline.eps))
            _, _, stats = solve_seeded(c, duals)
            steps.append(stats.dual_update_steps)
        rows.append(
            {"sigma": sigma, "mean_rho": float(np.mean(rhos)),
             "mean_dual_update_steps": float(np.mean(steps))}
        )
    return rows


def noise_csv(rows: list) -> str:
    header = "sigma,mean_rho,mean_dual_update_steps"
    return table_csv(header, rows, dict.fromkeys(header.split(","), ".6f"))


def _axis_rows(axis_name: str, axis_value, records: list) -> list:
    rows = []
    for srow in summarize(records):
        if srow.strategy == "cold":
            continue
        rows.append(
            {
                axis_name: axis_value,
                "strategy": srow.strategy,
                "n": srow.n,
                "mean_ratio": srow.mean_ratio,
                "ci_lo": srow.ci_lo,
                "ci_hi": srow.ci_hi,
                "mean_greedy_match_rate": srow.mean_greedy_match_rate,
                "augment_reduction_vs_cold": srow.augment_reduction_vs_cold,
                "fallback_rate": srow.fallback_rate,
            }
        )
    return rows


def axis_csv(axis_name: str, rows: list) -> str:
    return table_csv(
        f"{axis_name},strategy,n,mean_ratio,ci_lo,ci_hi,"
        "mean_greedy_match_rate,augment_reduction_vs_cold,fallback_rate",
        rows,
    )


def sweep_sparsity(spec: ExperimentSpec, fractions: list) -> list:
    """Re-run the grid on progressively sparsified copies of each instance."""
    preps = _prepare_sizes(spec, _load_model(spec))
    rows = []
    for fraction in fractions:
        def sparsify(c, trial):
            return datagen.sparsify(c, fraction, spec.seed, stream_index=trial)

        records = run_cells(spec, _grid_cells(spec, preps, sparsify))
        rows.extend(_axis_rows("mask_fraction", fraction, records))
    return rows


def sweep_topk(spec: ExperimentSpec, ks: list, train_instances: int = 50,
               epochs: int = 60) -> list:
    """Per refinement width K: train a fresh model on instances of the first
    size, then benchmark it against cold on the grid."""
    corpus = _corpus(spec, spec.sizes[0], train_instances)
    rows = []
    for k in ks:
        tc = rowdualnet.TrainConfig(epochs=epochs, seed=spec.seed)
        init = rowdualnet.init_model(FEATURE_DIM, refine_k=k, seed=tc.seed)
        model, _ = rowdualnet.train(corpus, tc, model=init)
        variant = dataclasses.replace(spec, strategies=("cold", "neural"))
        records = run_cells(variant, _grid_cells(variant, _prepare_sizes(variant, model)))
        rows.extend(_axis_rows("k", k, records))
    return rows


def sweep_permutation(spec: ExperimentSpec, num_perms: int = 10) -> list:
    """Row-permute one fixed instance; the optimal cost must not move.

    Reports, per strategy, the count of distinct optimal costs (expect 1)
    and the wall-clock spread across the permutations it solved; num_perms
    leaves out permutations that ended in an error record.
    """
    n = spec.sizes[0]
    base = generate_instance(spec, n, 0)
    prep = _prepare_size(spec, n, _load_model(spec))

    def permuted(p):
        perm = substream(spec.seed, STREAM_PERMUTATION, index=p).permutation(n)
        return CostMatrix(base.values[perm], base.sentinel)

    records = run_cells(spec, ((n, p, permuted(p), prep) for p in range(num_perms)))
    rows = []
    for name in spec.strategies:
        solved = [r for r in records if r.strategy == name and r.error is None]
        if not solved:
            continue
        costs = np.array([r.total_cost for r in solved])
        walls = np.array([r.wall_ns for r in solved], dtype=np.float64)
        rows.append(
            {
                "strategy": name,
                "num_perms": len(solved),
                "distinct_costs": int(np.unique(np.round(costs, 9)).size),
                "cost": float(costs[0]),
                "mean_wall_ns": float(walls.mean()),
                "wall_std_ns": float(walls.std()),
            }
        )
    return rows


def permutation_csv(rows: list) -> str:
    return table_csv(
        "strategy,num_perms,distinct_costs,cost,mean_wall_ns,wall_std_ns",
        rows,
        {"cost": ".9f", "mean_wall_ns": ".1f", "wall_std_ns": ".1f"},
    )
