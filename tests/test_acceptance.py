"""Acceptance gates for the package.

Each test implements one numbered criterion end to end and records exactly
one PASS/FAIL line (re-printed in the terminal summary). The expensive
trained model is session-scoped in conftest.py and shared by criteria
4, 7, 8 and 9.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import GATE_ACTIVATION, HELDOUT_SEED, labeled_instance, record
from dualseed import baselines, datagen, rowdualnet as rdn
from dualseed.bench import ExperimentSpec, RunRecord, summarize, sweep_noise
from dualseed.lap_core import (
    CostMatrix,
    brute_force,
    center_duals,
    reduced_costs,
    solve_cold,
    solve_seeded,
)
from dualseed._rng import substream
from dualseed.warmstart import (
    FEATURE_DIM,
    PipelineConfig,
    equality_density,
    extract_features,
    min_trick,
    run_pipeline,
)

RNG_BASE = 97001  # acceptance-only PRNG lane, disjoint from tuning/training


def _steps(stats) -> int:
    return stats.dual_update_steps


# --------------------------------------------------------------- criterion 1


def test_criterion_01_exactness_vs_brute_force():
    """500 instances, n in 2..8, mixed int/float costs, 50 fuzzed seeds each."""
    rng = substream(RNG_BASE, 1)
    checked = 0
    worst = 0.0
    for k in range(500):
        n = 2 + k % 7
        integer = k % 2 == 0
        if integer:
            values = rng.integers(0, 12, size=(n, n)).astype(np.float64)
        else:
            scale = 10.0 ** rng.integers(-2, 3)
            values = rng.random((n, n)) * scale
        c = CostMatrix(values)
        best_cost, _ = brute_force(c)
        for _ in range(50):
            u = rng.normal(0.0, 10.0 ** rng.integers(-2, 2), n)
            duals = min_trick(c, u)
            assignment, _, _ = solve_seeded(c, duals)
            diff = abs(assignment.total_cost - best_cost)
            if integer:
                assert assignment.total_cost == best_cost, (k, diff)
            else:
                assert diff <= 1e-9, (k, diff)
                worst = max(worst, diff)
            checked += 1
    ok = checked == 500 * 50
    record(ok, f"criterion 1: {checked} seeded solves match brute force "
               f"(max float gap {worst:.2e})")
    assert ok


# --------------------------------------------------------------- criterion 2


def test_criterion_02_min_trick_universal_feasibility():
    """10,000 fuzzed (C, u_hat) pairs produce zero feasibility violations."""
    rng = substream(RNG_BASE, 2)
    violations = 0
    for k in range(10_000):
        n = int(rng.integers(2, 40))
        scale = 10.0 ** rng.integers(-3, 4)
        kind = k % 3
        if kind == 0:
            values = rng.random((n, n)) * scale
        elif kind == 1:
            values = rng.normal(0.0, scale, (n, n))
        else:
            values = rng.exponential(scale, (n, n))
        c = CostMatrix(values)
        u = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), n)
        d = min_trick(c, u)
        r = reduced_costs(values, d.u, d.v)
        if r.min() < 0.0:
            violations += 1
    ok = violations == 0
    record(ok, f"criterion 2: min-trick feasibility violations {violations}/10000")
    assert ok


# --------------------------------------------------------------- criterion 3


def test_criterion_03_optimal_seed_is_idle():
    """Gauge-fixed optimal duals: zero dual updates, seed returned unchanged."""
    sizes = [16] * 34 + [64] * 33 + [256] * 33
    idle = 0
    untouched = 0
    for idx, n in enumerate(sizes):
        c = datagen.gen_dense(n, seed=RNG_BASE + 3, stream_index=idx)
        _, duals, _ = solve_cold(c)
        u0 = duals.u - duals.u.mean()
        seed = min_trick(c, u0)
        _, returned, stats = solve_seeded(c, seed)
        if stats.dual_update_steps == 0:
            idle += 1
        if np.array_equal(returned.u, seed.u) and np.array_equal(returned.v, seed.v):
            untouched += 1
    ok = idle == 100 and untouched == 100
    record(ok, f"criterion 3: optimal seeds idle {idle}/100, duals unchanged "
               f"{untouched}/100")
    assert ok


# --------------------------------------------------------------- criterion 4


def test_criterion_04_oracle_and_model_match_rates(gate_model):
    """n=512: oracle seed matches >=0.95 and beats cold everywhere; the
    trained model beats the cold match rate on >=80% of instances. The free
    row-min seed's match rate is reported beside it, not gated."""
    model, _ = gate_model
    oracle_rates, cold_rates, model_rates, row_min_rates = [], [], [], []
    for idx in range(20):
        c = datagen.gen_dense(512, seed=HELDOUT_SEED + 512, stream_index=idx)
        assignment, duals, cold_stats = solve_cold(c)
        cold_rates.append(cold_stats.greedy_matched / 512)

        centered = center_duals(c, assignment, duals, sweeps=10)
        oracle_seed = min_trick(c, centered.u - centered.u.mean())
        _, _, stats = solve_seeded(c, oracle_seed)
        oracle_rates.append(stats.greedy_matched / 512)

        u_hat = rdn.forward(model, extract_features(c), c)
        _, _, stats = solve_seeded(c, min_trick(c, u_hat))
        model_rates.append(stats.greedy_matched / 512)

        _, _, stats = solve_seeded(c, min_trick(c, baselines.seed_row_min(c)))
        row_min_rates.append(stats.greedy_matched / 512)

    oracle_rates = np.array(oracle_rates)
    cold_rates = np.array(cold_rates)
    model_rates = np.array(model_rates)
    row_min_rates = np.array(row_min_rates)
    row_min_wins = int((row_min_rates > cold_rates).sum())
    oracle_ok = bool((oracle_rates >= 0.95).all() and (oracle_rates > cold_rates).all())
    wins = int((model_rates > cold_rates).sum())
    model_ok = wins >= 16
    ok = oracle_ok and model_ok
    record(ok, f"criterion 4: oracle match mean {oracle_rates.mean():.3f} "
               f"(all >=0.95 and >cold: {oracle_ok}), model beats cold on "
               f"{wins}/20 (mean {model_rates.mean():.3f} vs cold "
               f"{cold_rates.mean():.3f}); row-min seed beats cold on "
               f"{row_min_wins}/20 (mean {row_min_rates.mean():.3f}; reported, "
               f"not gated)")
    assert ok


# --------------------------------------------------------------- criterion 5


def test_criterion_05_noise_sweep_degrades_monotonically():
    """Seed noise: mean rho strictly falls; dual updates rise end to end.

    The density readout uses eps = 1% of the unit cost range: the swept noise
    scales (5%..40% of range) are orders of magnitude above the solver's
    equality tolerance, so a readout at that tolerance would saturate at the
    one-tight-edge-per-column floor for every nonzero sigma.
    """
    spec = ExperimentSpec(
        generator="dense", sizes=(256,), trials=20, strategies=("cold",),
        seed=RNG_BASE + 5, pipeline=PipelineConfig(eps=0.01),
    )
    rows = sweep_noise(spec, [0.0, 0.05, 0.1, 0.2, 0.4])
    rhos = [row["mean_rho"] for row in rows]
    steps = [row["mean_dual_update_steps"] for row in rows]
    rho_ok = all(rhos[i] > rhos[i + 1] for i in range(len(rhos) - 1))
    steps_ok = steps[-1] > steps[0]
    ok = rho_ok and steps_ok
    record(ok, f"criterion 5: rho {['%.3f' % r for r in rhos]} strictly "
               f"decreasing={rho_ok}; steps {steps[0]:.1f}->{steps[-1]:.1f} "
               f"increasing={steps_ok}")
    assert ok


# --------------------------------------------------------------- criterion 6


def test_criterion_06_gradient_check():
    """Analytic vs central-difference gradients on a tiny model, 5 seeds."""
    h = 1e-5
    worst = 0.0
    worst_abs = 0.0  # over every entry, the skipped ones too
    skipped = total = 0
    for seed in range(5):
        c = datagen.gen_dense(6, seed=RNG_BASE + 6, stream_index=seed)
        inst = labeled_instance(c)
        model = rdn.init_model(FEATURE_DIM, hidden_dim=8, refine_k=3, seed=seed,
                               activation=GATE_ACTIVATION)
        _, grads = rdn.loss_and_grads(model, inst.features, inst.c, inst, 0.1)

        def fd_loss():
            u_hat = rdn.forward(model, inst.features, inst.c)
            return rdn.loss(u_hat, inst, 0.1)[0]

        for name in model.names():
            flat = model.params[name].reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.shape[0]):
                orig = flat[i]
                flat[i] = orig + h
                up = fd_loss()
                flat[i] = orig - h
                down = fd_loss()
                flat[i] = orig
                fd = (up - down) / (2.0 * h)
                diff = abs(gflat[i] - fd)
                worst_abs = max(worst_abs, diff)
                total += 1
                if diff <= 1e-8:  # both zero at finite-difference noise floor
                    skipped += 1
                    continue
                worst = max(worst, diff / max(abs(gflat[i]), abs(fd)))
    ok = worst <= 1e-4
    record(ok, f"criterion 6: gradcheck max relative error {worst:.2e}, "
               f"max absolute difference {worst_abs:.2e} over {total} entries, "
               f"{skipped} skipped as <= 1e-8 (activation {GATE_ACTIVATION})")
    assert ok


# --------------------------------------------------------------- criterion 7


def test_criterion_07_learning_reduces_dual_updates(gate_model):
    """Neural seed needs <=0.6x the cold dual updates on held-out instances,
    with exact costs. Reported, not gated: the end-to-end wall-clock speedup,
    the columns scanned against cold, and both ratios for the free row-min
    seed, so that a pass can be told from a seed near the row minima."""
    model, info = gate_model
    cfg = PipelineConfig(tau=1.0)  # consume the seed; gate studied separately
    cold_steps, neural_steps, row_min_steps = [], [], []
    cold_scans, neural_scans, row_min_scans = [], [], []
    cold_walls, pipe_walls = [], []
    exact = 0
    for idx in range(50):
        c = datagen.gen_dense(128, seed=HELDOUT_SEED, stream_index=idx)
        t0 = time.perf_counter_ns()
        cold_assignment, _, cold_stats = solve_cold(c)
        cold_walls.append(time.perf_counter_ns() - t0)
        cold_steps.append(_steps(cold_stats))
        cold_scans.append(cold_stats.scanned_columns)

        assignment, report = run_pipeline(
            c, lambda f: rdn.forward(model, f, c), cfg
        )
        pipe_walls.append(sum(report.stage_times.values()))
        neural_steps.append(_steps(report.solve_stats))
        neural_scans.append(report.solve_stats.scanned_columns)
        if abs(assignment.total_cost - cold_assignment.total_cost) <= 1e-9:
            exact += 1

        _, report = run_pipeline(
            c, lambda f: baselines.seed_row_min(c), cfg, needs_features=False
        )
        row_min_steps.append(_steps(report.solve_stats))
        row_min_scans.append(report.solve_stats.scanned_columns)

    ratio = float(np.mean(neural_steps) / np.mean(cold_steps))
    speedup = float(np.mean(cold_walls) / np.mean(pipe_walls))
    scan_ratio = float(np.mean(neural_scans) / np.mean(cold_scans))
    row_min_ratio = float(np.mean(row_min_steps) / np.mean(cold_steps))
    row_min_scan_ratio = float(np.mean(row_min_scans) / np.mean(cold_scans))
    ok = ratio <= 0.6 and exact == 50
    record(ok, f"criterion 7: dual-update ratio {ratio:.3f} (gate 0.6), "
               f"exact costs {exact}/50, wall speedup {speedup:.2f}x "
               f"(reported, not gated; train {info['train_seconds']:.0f}s); "
               f"scanned-column ratio {scan_ratio:.3f}; row-min seed: "
               f"dual-update ratio {row_min_ratio:.3f}, scanned-column ratio "
               f"{row_min_scan_ratio:.3f} (reported, not gated)")
    assert ok


# --------------------------------------------------------------- criterion 8


def test_criterion_08_overhead_ratio_non_increasing(gate_model):
    """Median (features+model+min_trick+fallback)/solver ratio does not grow
    with n."""
    model, _ = gate_model
    cfg = PipelineConfig()
    sizes = (256, 512, 1024, 2048)
    warmup = datagen.gen_dense(64, seed=HELDOUT_SEED + 64)
    run_pipeline(warmup, lambda f: rdn.forward(model, f, warmup), cfg)
    medians = []
    for n in sizes:
        ratios = []
        for idx in range(5):
            c = datagen.gen_dense(n, seed=HELDOUT_SEED + n, stream_index=idx)
            _, report = run_pipeline(c, lambda f: rdn.forward(model, f, c), cfg)
            st = report.stage_times
            overhead = sum(v for k, v in st.items() if k != "solver")
            ratios.append(overhead / st["solver"])
        medians.append(float(np.median(ratios)))
    ok = all(medians[i] >= medians[i + 1] for i in range(len(medians) - 1))
    pretty = ", ".join(f"n={n}: {m:.4f}" for n, m in zip(sizes, medians))
    record(ok, f"criterion 8: median overhead/solver ratio non-increasing "
               f"({pretty})")
    assert ok


# --------------------------------------------------------------- criterion 9


def test_criterion_09_random_seed_is_no_better(gate_model):
    """Random seeds need at least as many dual updates as neural seeds at
    n=256; random and row-mean fallback rates reported."""
    model, _ = gate_model
    cfg = PipelineConfig()
    neural_steps, random_steps = [], []
    random_fallbacks, row_mean_fallbacks = 0, 0
    for idx in range(20):
        c = datagen.gen_dense(256, seed=HELDOUT_SEED + 256, stream_index=idx)
        u_hat = rdn.forward(model, extract_features(c), c)
        _, _, stats = solve_seeded(c, min_trick(c, u_hat))
        neural_steps.append(_steps(stats))

        u_rand = baselines.seed_random(c, seed=idx)
        rand_duals = min_trick(c, u_rand)
        _, _, stats = solve_seeded(c, rand_duals)
        random_steps.append(_steps(stats))
        if equality_density(c, rand_duals, cfg.eps) < cfg.tau:
            random_fallbacks += 1
        mean_duals = min_trick(c, baselines.seed_row_mean(c))
        if equality_density(c, mean_duals, cfg.eps) < cfg.tau:
            row_mean_fallbacks += 1

    mean_neural = float(np.mean(neural_steps))
    mean_random = float(np.mean(random_steps))
    ok = mean_random >= mean_neural
    record(ok, f"criterion 9: random steps {mean_random:.1f} >= neural "
               f"{mean_neural:.1f}; fallback rate random "
               f"{random_fallbacks / 20:.2f}, row-mean {row_mean_fallbacks / 20:.2f}")
    assert ok


# -------------------------------------------------------------- criterion 10


def test_criterion_10_summary_statistics_hand_checked():
    """summarize() reproduces hand-computed mean ratio, CI width and CV."""
    records = []
    for t, wall in enumerate((4400, 3960, 3600)):
        records.append(RunRecord(strategy="cold", n=8, trial=t, total_cost=1.0,
                                 wall_ns=7920, augment_searches=8))
        records.append(RunRecord(strategy="row_mean", n=8, trial=t,
                                 total_cost=1.0, wall_ns=wall,
                                 augment_searches=2))
    rows = {r.strategy: r for r in summarize(records)}
    ours = rows["row_mean"]
    # ratios 7920/4400 = 1.8, 7920/3960 = 2.0, 7920/3600 = 2.2
    # mean 2.0; sample std 0.2; CI halfwidth 1.96*0.2/sqrt(3) = 0.226321 (6dp)
    mean_ok = f"{ours.mean_ratio:.6f}" == "2.000000"
    halfwidth = (ours.ci_hi - ours.ci_lo) / 2.0
    ci_ok = f"{halfwidth:.6f}" == "0.226321"
    # population std of cold walls {1,2,3} is sqrt(2/3); CV 0.408248 (6dp)
    cv_records = [RunRecord(strategy="cold", n=8, trial=t, total_cost=1.0,
                            wall_ns=w) for t, w in enumerate((1, 2, 3))]
    (cv_row,) = summarize(cv_records)
    cv_ok = f"{cv_row.cv:.6f}" == "0.408248"
    ok = mean_ok and ci_ok and cv_ok
    record(ok, f"criterion 10: mean ratio {ours.mean_ratio:.6f}, CI halfwidth "
               f"{halfwidth:.6f}, CV {cv_row.cv:.6f} all match hand values")
    assert ok


# -------------------------------------------------------------- criterion 11


def test_criterion_11_row_permutation_invariance():
    """Row permutations leave the optimal cost exactly unchanged."""
    base = datagen.gen_dense(256, seed=RNG_BASE + 11)
    # integer-valued costs make float summation order-independent, so "exact"
    # is well-posed across permuted runs
    values = np.floor(base.values * 1e6)
    rng = substream(RNG_BASE, 11)
    costs, walls = [], []
    for k in range(10):
        perm = np.arange(256) if k == 0 else rng.permutation(256)
        c = CostMatrix(values[perm])
        t0 = time.perf_counter_ns()
        assignment, _, _ = solve_cold(c)
        walls.append(time.perf_counter_ns() - t0)
        costs.append(assignment.total_cost)
    ok = len(set(costs)) == 1
    record(ok, f"criterion 11: {len(set(costs))} distinct cost(s) over 10 row "
               f"permutations (cost {costs[0]:.0f}); wall std "
               f"{np.std(walls) / 1e6:.2f} ms")
    assert ok
