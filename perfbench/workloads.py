"""Workload definitions: the instances each workload solves and its model recipe.

Everything here is a pure function of (workload, seed). Evaluation instances
take substreams 0 .. instances-1 of the seed; training instances take
substreams from TRAIN_STREAM on, so the two sets never share a matrix.
"""

import time
from dataclasses import dataclass

from dualseed import datagen, rowdualnet

# Substream index of the first training instance; far above any evaluation
# instance count, so training and evaluation matrices never coincide.
TRAIN_STREAM = 1 << 20

# Training recipe shared by every workload. The architecture is the package
# default (H = 192, 3 residual blocks, K = 16), so the model stage costs what
# a user pays; the corpus is small so that training does not dominate a run.
TRAIN_INSTANCES = 16
TRAIN_EPOCHS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "dense" (uniform [0, 1) costs) or "block" (gen_block defaults)
    n: int  # evaluation size
    instances: int  # evaluation instances; every run solves each one at least once
    train_n: int  # training size, smaller than n: zero-shot size transfer


# One pass over a workload's instances takes 10-16 s on a 2-vCPU Xeon, so
# that a run of 25 s stays near 25 s even when the machine runs 1.6x slower.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-small", "dense", n=128, instances=256, train_n=32),
        Workload("dense-large", "dense", n=1024, instances=10, train_n=64),
        Workload("block", "block", n=256, instances=10, train_n=64),
    )
}


def make_instance(family: str, n: int, seed: int, index: int):
    if family == "dense":
        return datagen.gen_dense(n, seed, stream_index=index)
    return datagen.gen_block(datagen.BlockParams(n=n, seed=seed), stream_index=index)


def eval_instances(w: Workload, seed: int) -> list:
    return [make_instance(w.family, w.n, seed, i) for i in range(w.instances)]


def train_model(w: Workload, seed: int):
    """Label TRAIN_INSTANCES matrices at w.train_n with the exact solver and fit."""
    corpus = [
        datagen.gen_labels(make_instance(w.family, w.train_n, seed, TRAIN_STREAM + i))
        for i in range(TRAIN_INSTANCES)
    ]
    model, _ = rowdualnet.train(corpus, rowdualnet.TrainConfig(epochs=TRAIN_EPOCHS, seed=seed))
    return model


@dataclass
class Setup:
    instances: list
    model: object
    seconds: float


def set_up(w: Workload, seed: int) -> Setup:
    """Generate the evaluation instances and train the workload's model, timed."""
    t0 = time.perf_counter()
    instances = eval_instances(w, seed)
    model = train_model(w, seed)
    return Setup(instances, model, time.perf_counter() - t0)
