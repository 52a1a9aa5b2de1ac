"""Shared fixtures for the test suite.

The acceptance tests share one expensive resource: a model trained at n=128
on 200 synthetic instances (the "gate model"). It is built lazily by a
session-scoped fixture so the module tests never pay for it. Each acceptance
test records a single PASS/FAIL verdict line; the lines are re-emitted in the
terminal summary so they are visible without -s.
"""

from __future__ import annotations

import time

from dualseed import datagen, rowdualnet as rdn
from dualseed.warmstart import FEATURE_DIM

import pytest

# Training recipe for the gate model (acceptance criteria 4, 7, 8, 9).
# Architecture and optimizer settings follow the package defaults
# (H=64, 1 residual block, K=16, AdamW 1e-3 / wd 1e-4, plateau scheduler);
# the knobs below were selected on a tuning split disjoint from the
# acceptance held-out set.
GATE_TRAIN_SEED = 2000  # PRNG seed for the 200 training matrices
GATE_TRAIN_COUNT = 200
GATE_N = 128
GATE_EPOCHS = 150
GATE_BATCH = 16
GATE_LAMBDA = 0.1
GATE_SEED = 2  # model init / shuffle seed
GATE_VAL_FRACTION = 0.05
GATE_ACTIVATION = "silu"
GATE_TRANSPOSE_AUGMENT = True  # also train on each instance's transpose
LABEL_CENTER_SWEEPS = 10  # interior-point sweeps when building label duals
HELDOUT_SEED = 4000  # acceptance evaluation matrices (disjoint from tuning)

VERDICTS: list[str] = []


def record(ok: bool, line: str) -> None:
    """Store and print one acceptance verdict line."""
    text = f"{'PASS' if ok else 'FAIL'} {line}"
    VERDICTS.append(text)
    print(text)


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


def labeled_instance(c, sweeps: int = LABEL_CENTER_SWEEPS) -> datagen.LabeledInstance:
    """Optimal gauge-fixed duals (interior-centered) plus features for c."""
    return datagen.gen_labels(c, center_sweeps=sweeps)


@pytest.fixture(scope="session")
def gate_model():
    """Model trained once per session at n=128; shared across criteria.

    Returns (model, info) where info carries the wall-clock seconds of the
    training run for the reported-but-not-gated speedup summaries.
    """
    t0 = time.perf_counter()
    dataset = [
        labeled_instance(datagen.gen_dense(GATE_N, seed=GATE_TRAIN_SEED, stream_index=i))
        for i in range(GATE_TRAIN_COUNT)
    ]
    if GATE_TRANSPOSE_AUGMENT:
        dataset = dataset + [datagen.transpose_instance(inst) for inst in dataset]
    t1 = time.perf_counter()
    cfg = rdn.TrainConfig(
        epochs=GATE_EPOCHS,
        batch=GATE_BATCH,
        lambda_cs=GATE_LAMBDA,
        seed=GATE_SEED,
        val_fraction=GATE_VAL_FRACTION,
    )
    init = rdn.init_model(FEATURE_DIM, seed=cfg.seed, activation=GATE_ACTIVATION)
    model, log = rdn.train(dataset, cfg, model=init)
    t2 = time.perf_counter()
    info = {
        "label_seconds": t1 - t0,
        "train_seconds": t2 - t1,
        "final_val_loss": log[-1]["val_loss"],
    }
    return model, info
