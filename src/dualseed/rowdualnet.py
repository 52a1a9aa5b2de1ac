"""Row-potential predictor: residual MLP with sparse reduced-cost refinement.

Each cost-matrix row is encoded on its own: feature vector -> input
projection -> residual blocks (LayerNorm, Linear, ReLU, Linear, skip) ->
scalar preliminary potential through the output head. The refinement stage
takes the K smallest pseudo-reduced costs of the row (sorted ascending,
padded by repeating the largest selected value when K > n), projects them
into the hidden space, adds them to the hidden state, and emits the final
potential through the same head.

The features are z-scored per instance and carry no cost scale, while
optimal potentials shrink with the typical gap between a row's cheapest
costs (about 1/n on uniform costs). The head therefore predicts in units of
a per-instance scale sigma (see `_cost_scale`): u = sigma * (h @ w_out) +
b_out, and the refinement input is the pseudo-reduced costs divided by
sigma. The bias b_out stays in cost units.

Gradients are hand-written reverse mode. Subgradient conventions: ReLU uses
the zero branch at the kink, top-K selection indices are constants of the
backward pass, and the columnwise argmin inside the loss routes the gradient
of v_j entirely to the attaining row (lowest index on ties).
"""

import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptCheckpoint, EmptyDataset, InvalidSetting, ShapeMismatch, VersionMismatch
from ._rng import STREAM_MODEL_INIT, STREAM_TRAIN_SHUFFLE, substream
from .lap_core import BLOCK_ENTRIES, CostMatrix, column_minima
from .warmstart import FEATURE_DIM

LN_EPS = 1e-5
CHECKPOINT_MAGIC = b"RDN1"
# 2: head output and refinement input are in units of _cost_scale; weights
# trained under version 1 (absolute cost units) mean something else.
# 3: the input is warmstart's 10 row features; version 2 read 21 columns.
CHECKPOINT_VERSION = 3

# From an ablation over H in {32, 64, 128, 192} x {1, 2, 3} blocks (see
# CHANGES.md): at H = 64 with one block the model runs 9x and trains 13x
# faster than at H = 192 with three, with the same acceptance match rate and
# fewer columns scanned by seeded solves.
DEFAULT_HIDDEN = 64
DEFAULT_BLOCKS = 1
DEFAULT_REFINE_K = 16

SCHEDULER_FACTOR = 0.5
SCHEDULER_PATIENCE = 10

ACTIVATIONS = ("relu", "silu")


def _activate(pre: np.ndarray, kind: str, grad: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Block nonlinearity value and, if grad, its elementwise derivative."""
    if kind == "relu":
        return np.maximum(pre, 0.0), (pre > 0.0).astype(np.float64) if grad else None
    if kind == "silu":
        # logistic sigmoid via tanh, stable for large |pre|
        sig = 0.5 * (1.0 + np.tanh(0.5 * pre))
        return pre * sig, sig * (1.0 + pre * (1.0 - sig)) if grad else None
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class ModelParams:
    """Architecture metadata plus named parameter tensors.

    Tensor names, in order: w_in (d,H), b_in (H,), then per block b:
    ln_gamma{b}, ln_beta{b} (H,), w1{b}, w2{b} (H,H), b1{b}, b2{b} (H,),
    then w_ref (K,H), b_ref (H,), w_out (H,), b_out (1,).
    """

    input_dim: int
    hidden_dim: int
    num_blocks: int
    refine_k: int
    activation: str = "relu"
    version: int = CHECKPOINT_VERSION
    params: dict = field(default_factory=dict)

    def names(self) -> list:
        return list(self.params.keys())


def init_model(
    input_dim: int,
    hidden_dim: int = DEFAULT_HIDDEN,
    num_blocks: int = DEFAULT_BLOCKS,
    refine_k: int = DEFAULT_REFINE_K,
    seed: int = 0,
    activation: str = "relu",
) -> ModelParams:
    """He-initialized model; biases and LayerNorm offsets start at zero."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    if refine_k < 1:
        raise InvalidSetting("refine_k must be >= 1")
    rng = substream(seed, STREAM_MODEL_INIT)
    h = hidden_dim
    p = {}
    p["w_in"] = rng.normal(0.0, np.sqrt(2.0 / input_dim), (input_dim, h))
    p["b_in"] = np.zeros(h)
    for b in range(num_blocks):
        p[f"ln_gamma{b}"] = np.ones(h)
        p[f"ln_beta{b}"] = np.zeros(h)
        p[f"w1{b}"] = rng.normal(0.0, np.sqrt(2.0 / h), (h, h))
        p[f"b1{b}"] = np.zeros(h)
        p[f"w2{b}"] = rng.normal(0.0, np.sqrt(2.0 / h), (h, h))
        p[f"b2{b}"] = np.zeros(h)
    p["w_ref"] = rng.normal(0.0, np.sqrt(1.0 / refine_k), (refine_k, h))
    p["b_ref"] = np.zeros(h)
    # Targets in sigma units have std about 1.6 on uniform costs; with weight
    # variance 1/H the head output h @ w_out starts at the scale of the
    # hidden activations, i.e. order one.
    p["w_out"] = rng.normal(0.0, np.sqrt(1.0 / h), h)
    p["b_out"] = np.zeros(1)
    return ModelParams(
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        num_blocks=num_blocks,
        refine_k=refine_k,
        activation=activation,
        params=p,
    )


def _as_cost_array(c) -> np.ndarray:
    return c.values if isinstance(c, CostMatrix) else np.asarray(c, dtype=np.float64)


def _sorted_k_costs(values: np.ndarray, k: int) -> np.ndarray:
    """K smallest entries of each row, sorted ascending, padded by the max.

    Selection on pseudo-reduced costs C_ij - u_init_i equals selection on the
    raw row (the per-row shift preserves order), so this depends on C alone.
    Each row is selected on its own, so working through blocks of rows gives
    the same bits as one whole-matrix partition without copying C.
    """
    n = values.shape[1]
    if n >= k:
        step = max(1, BLOCK_ENTRIES // n)
        kv = np.empty((values.shape[0], k))
        for lo in range(0, values.shape[0], step):
            part = np.partition(values[lo : lo + step], k - 1, axis=1)[:, :k]
            kv[lo : lo + step] = np.sort(part, axis=1)
        return kv
    srows = np.sort(values, axis=1)
    pad = np.repeat(srows[:, -1:], k - n, axis=1)
    return np.concatenate([srows, pad], axis=1)


def _cost_scale(kv: np.ndarray, n: int) -> float:
    """Per-instance potential scale sigma from the sorted K smallest costs.

    The median over rows of the mean gap among each row's first min(K, n)
    smallest costs; 1.0 when that is zero (constant rows, n == 1). Padding
    columns are excluded, so sigma does not depend on K once K >= n, and the
    median makes it invariant, bit for bit, under row permutations.
    """
    m = min(kv.shape[1], n)
    if m < 2:
        return 1.0
    sigma = float(np.median((kv[:, m - 1] - kv[:, 0]) / (m - 1)))
    return sigma if sigma > 0.0 else 1.0


def _cost_constants(values: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """(kv, sigma): each row's K smallest costs and the cost scale, which
    depend on C alone, so training computes them once per instance."""
    kv = _sorted_k_costs(values, k)
    return kv, _cost_scale(kv, values.shape[1])


def _forward_cached(p: ModelParams, f, c, for_backward: bool = True, consts=None) -> dict:
    """Forward pass; with for_backward it also keeps what the backward pass
    reads (per-block activations and derivatives), which inference skips.
    consts is _cost_constants(C, p.refine_k) when the caller has it."""
    x = np.asarray(f, dtype=np.float64)
    values = _as_cost_array(c)
    if x.ndim != 2 or x.shape[1] != p.input_dim:
        raise ShapeMismatch(f"features shape {x.shape} does not match input_dim={p.input_dim}")
    if values.shape[0] != x.shape[0]:
        raise ShapeMismatch(f"cost matrix n={values.shape[0]} vs features n={x.shape[0]}")
    w = p.params

    cache = {"x": x, "blocks": []}
    h = x @ w["w_in"] + w["b_in"]
    for b in range(p.num_blocks):
        z = h
        mean = z.mean(axis=1, keepdims=True)
        var = z.var(axis=1, keepdims=True)
        std = np.sqrt(var + LN_EPS)
        y = (z - mean) / std
        a = y * w[f"ln_gamma{b}"] + w[f"ln_beta{b}"]
        pre = a @ w[f"w1{b}"] + w[f"b1{b}"]
        t, dact = _activate(pre, p.activation, for_backward)
        h = z + t @ w[f"w2{b}"] + w[f"b2{b}"]
        if for_backward:
            cache["blocks"].append({"z": z, "std": std, "y": y, "a": a, "dact": dact, "t": t})

    kv, sigma = consts if consts is not None else _cost_constants(values, p.refine_k)
    u_init = sigma * (h @ w["w_out"]) + w["b_out"][0]
    s = (kv - u_init[:, None]) / sigma
    hp = h + s @ w["w_ref"] + w["b_ref"]
    u_hat = sigma * (hp @ w["w_out"]) + w["b_out"][0]

    cache.update({"h": h, "sigma": sigma, "u_init": u_init, "s": s, "hp": hp, "u_hat": u_hat})
    return cache


def forward(p: ModelParams, f, c) -> np.ndarray:
    """Predicted row potentials, length n. Deterministic and equivariant under
    row permutations; rows share nothing but the cost scale sigma."""
    return _forward_cached(p, f, c, for_backward=False)["u_hat"]


@dataclass
class LossInternals:
    """Pieces of the loss needed by the backward pass."""

    u_hat: np.ndarray
    mae: float
    slack: float
    v_hat: np.ndarray
    col_argmin: np.ndarray
    edges: np.ndarray
    active: np.ndarray


def loss(u_hat: np.ndarray, inst, lambda_cs: float) -> tuple[float, LossInternals]:
    """MAE against the label potentials plus the slackness penalty.

    The penalty sums ReLU(C_ij - u_i - v_j) over the optimal edges, with v
    rebuilt from u_hat by columnwise minima so the model is rewarded for
    potentials whose completion keeps the true assignment tight.
    """
    values = inst.c.values
    u_star = inst.u_star
    u_hat = np.asarray(u_hat, dtype=np.float64)
    mae = float(np.abs(u_hat - u_star).mean())
    # col_argmin (lowest row on ties) is the subgradient route of v_hat
    v_hat, col_argmin = column_minima(values, u_hat, argmins=True)
    edges = inst.optimal_edges
    ei = edges[:, 0]
    ej = edges[:, 1]
    terms = (values[ei, ej] - u_hat[ei]) - v_hat[ej]
    active = terms > 0.0
    slack = float(terms[active].sum()) if active.any() else 0.0
    total = mae + lambda_cs * slack
    return total, LossInternals(u_hat, mae, slack, v_hat, col_argmin, edges, active)


def _grad_u(internals: LossInternals, u_star: np.ndarray, lambda_cs: float) -> np.ndarray:
    n = u_star.shape[0]
    g = np.sign(internals.u_hat - u_star) / n
    if lambda_cs != 0.0 and internals.active.any():
        ei = internals.edges[internals.active, 0]
        ej = internals.edges[internals.active, 1]
        np.subtract.at(g, ei, lambda_cs)
        np.add.at(g, internals.col_argmin[ej], lambda_cs)
    return g


def _backward_from_cache(p: ModelParams, cache: dict, g_u: np.ndarray) -> dict:
    w = p.params
    grads = {name: np.zeros_like(arr) for name, arr in w.items()}

    hp = cache["hp"]
    h = cache["h"]
    s = cache["s"]
    sigma = cache["sigma"]  # a constant of C: no gradient flows into it

    # final head: u_hat = sigma * (hp @ w_out) + b_out
    d_hp = sigma * g_u[:, None] * w["w_out"][None, :]
    grads["w_out"] += sigma * (hp.T @ g_u)
    grads["b_out"][0] += g_u.sum()

    # refinement: hp = h + s @ w_ref + b_ref, s = (kv - u_init) / sigma
    d_s = d_hp @ w["w_ref"].T
    grads["w_ref"] += s.T @ d_hp
    grads["b_ref"] += d_hp.sum(axis=0)
    d_h = d_hp.copy()
    d_uinit = -d_s.sum(axis=1) / sigma

    # intermediate head (shared weights): u_init = sigma * (h @ w_out) + b_out
    grads["w_out"] += sigma * (h.T @ d_uinit)
    grads["b_out"][0] += d_uinit.sum()
    d_h += sigma * d_uinit[:, None] * w["w_out"][None, :]

    for b in reversed(range(p.num_blocks)):
        blk = cache["blocks"][b]
        d_t = d_h @ w[f"w2{b}"].T
        grads[f"w2{b}"] += blk["t"].T @ d_h
        grads[f"b2{b}"] += d_h.sum(axis=0)
        d_pre = d_t * blk["dact"]
        grads[f"w1{b}"] += blk["a"].T @ d_pre
        grads[f"b1{b}"] += d_pre.sum(axis=0)
        d_a = d_pre @ w[f"w1{b}"].T
        grads[f"ln_gamma{b}"] += (d_a * blk["y"]).sum(axis=0)
        grads[f"ln_beta{b}"] += d_a.sum(axis=0)
        dy = d_a * w[f"ln_gamma{b}"]
        m1 = dy.mean(axis=1, keepdims=True)
        m2 = (dy * blk["y"]).mean(axis=1, keepdims=True)
        d_z = (dy - m1 - blk["y"] * m2) / blk["std"]
        d_h = d_h + d_z

    grads["w_in"] += cache["x"].T @ d_h
    grads["b_in"] += d_h.sum(axis=0)
    return grads


def loss_and_grads(p: ModelParams, f, c, inst, lambda_cs: float) -> tuple[float, dict]:
    """One fused forward + loss + backward evaluation."""
    return _loss_and_grads(p, _forward_cached(p, f, c), inst, lambda_cs)


def _loss_and_grads(p: ModelParams, cache: dict, inst, lambda_cs: float) -> tuple[float, dict]:
    total, internals = loss(cache["u_hat"], inst, lambda_cs)
    g_u = _grad_u(internals, inst.u_star, lambda_cs)
    return total, _backward_from_cache(p, cache, g_u)


def backward(p: ModelParams, f, c, inst, lambda_cs: float) -> dict:
    """Gradient of the loss with respect to every parameter tensor."""
    return loss_and_grads(p, f, c, inst, lambda_cs)[1]


@dataclass
class TrainConfig:
    """Optimizer and loop settings."""

    lr: float = 1e-3
    weight_decay: float = 1e-4
    lambda_cs: float = 0.1
    batch: int = 16
    epochs: int = 150
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be nonnegative")
        if self.lambda_cs < 0:
            raise ValueError("lambda_cs must be nonnegative")


class AdamW:
    """Adaptive moments with decoupled weight decay."""

    def __init__(self, names, shapes, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {n: np.zeros(s) for n, s in zip(names, shapes)}
        self.v = {n: np.zeros(s) for n, s in zip(names, shapes)}

    def step(self, params: dict, grads: dict):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p -= self.lr * update
            if self.weight_decay:
                p -= self.lr * self.weight_decay * p


class PlateauScheduler:
    """Multiply lr by `factor` after `patience` epochs without improvement."""

    def __init__(self, optimizer: AdamW, factor: float, patience: int):
        self.optimizer = optimizer
        self.factor = factor
        self.patience = patience
        self.best = np.inf
        self.bad_epochs = 0

    def step(self, val_loss: float):
        if val_loss < self.best:
            self.best = val_loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.optimizer.lr *= self.factor
                self.bad_epochs = 0


def split_dataset(m: int, cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (train_indices, val_indices) split for a dataset of size m.

    At least one validation instance; a single-instance dataset doubles as
    both sets.
    """
    rng = substream(cfg.seed, STREAM_TRAIN_SHUFFLE)
    order = rng.permutation(m)
    if m == 1:
        one = np.array([0])
        return one, one
    n_val = max(1, int(round(cfg.val_fraction * m)))
    n_val = min(n_val, m - 1)
    return order[n_val:], order[:n_val]


def train(dataset: list, cfg: TrainConfig, model: ModelParams | None = None) -> tuple[ModelParams, list]:
    """Fit a model on labeled instances; returns (params, per-epoch log).

    Training starts from `model`, or from init_model(FEATURE_DIM,
    seed=cfg.seed), the default architecture, when it is None.

    Instances are shuffled per epoch and consumed in batches whose mean
    gradient drives one optimizer step. A validation split (val_fraction,
    at least one instance; the single instance doubles as both sets when the
    dataset has size one) feeds the plateau scheduler. Deterministic given
    cfg.seed, apart from the timings.

    Each log entry holds epoch, train_loss, val_loss and its two terms
    averaged over the validation instances (val_mae, and val_slack before
    the lambda_cs weight), the learning rate after the scheduler step, and
    epoch_ns, the epoch's wall time including validation.
    """
    if not dataset:
        raise EmptyDataset("train() needs at least one labeled instance")
    m = len(dataset)
    train_idx, val_idx = split_dataset(m, cfg)
    rng = substream(cfg.seed, STREAM_TRAIN_SHUFFLE, index=1)

    if model is None:
        model = init_model(FEATURE_DIM, seed=cfg.seed)
    names = model.names()
    shapes = [model.params[n].shape for n in names]
    opt = AdamW(names, shapes, cfg.lr, cfg.weight_decay)
    sched = PlateauScheduler(opt, SCHEDULER_FACTOR, SCHEDULER_PATIENCE)
    consts = [_cost_constants(inst.c.values, model.refine_k) for inst in dataset]

    log = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter_ns()
        perm = rng.permutation(len(train_idx))
        epoch_losses = []
        for start in range(0, len(train_idx), cfg.batch):
            chunk = train_idx[perm[start : start + cfg.batch]]
            acc = {n: np.zeros_like(model.params[n]) for n in names}
            batch_loss = 0.0
            for idx in chunk:
                inst = dataset[int(idx)]
                cache = _forward_cached(model, inst.features, inst.c, consts=consts[int(idx)])
                li, gi = _loss_and_grads(model, cache, inst, cfg.lambda_cs)
                batch_loss += li
                for n in names:
                    acc[n] += gi[n]
            scale = 1.0 / len(chunk)
            for n in names:
                acc[n] *= scale
            opt.step(model.params, acc)
            epoch_losses.append(batch_loss * scale)
        val_losses, val_maes, val_slacks = [], [], []
        for idx in val_idx:
            inst = dataset[int(idx)]
            u_hat = _forward_cached(model, inst.features, inst.c, False, consts[int(idx)])["u_hat"]
            total, internals = loss(u_hat, inst, cfg.lambda_cs)
            val_losses.append(total)
            val_maes.append(internals.mae)
            val_slacks.append(internals.slack)
        train_loss = float(np.mean(epoch_losses))
        val_loss = float(np.mean(val_losses))
        sched.step(val_loss)
        log.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "val_loss": val_loss,
                "val_mae": float(np.mean(val_maes)),
                "val_slack": float(np.mean(val_slacks)),
                "lr": opt.lr,
                "epoch_ns": time.perf_counter_ns() - t0,
            }
        )
    return model, log


# Header keys load_checkpoint needs; "activation" is optional (default relu).
_HEADER_KEYS = ("version", "input_dim", "hidden_dim", "num_blocks", "refine_k", "tensors")


def save_checkpoint(p: ModelParams, path: str):
    """Binary checkpoint: magic, JSON header, raw little-endian f64 tensors."""
    header = {
        "version": p.version,
        "input_dim": p.input_dim,
        "hidden_dim": p.hidden_dim,
        "num_blocks": p.num_blocks,
        "refine_k": p.refine_k,
        "activation": p.activation,
        "tensors": [[name, list(p.params[name].shape)] for name in p.names()],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in p.names():
            fh.write(np.ascontiguousarray(p.params[name], dtype="<f8").tobytes())


def load_checkpoint(path: str, expect_input_dim: int | None = None) -> ModelParams:
    """Read a checkpoint; reject wrong magic/truncation/trailing bytes/missing
    header keys (CorruptCheckpoint) and version/activation/shape
    (VersionMismatch). Header keys this version does not read are ignored."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint("bad magic bytes")
    (hlen,) = struct.unpack("<I", data[4:8])
    if len(data) < 8 + hlen:
        raise CorruptCheckpoint("truncated header")
    try:
        header = json.loads(data[8 : 8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CorruptCheckpoint("header is not a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise CorruptCheckpoint(f"header lacks {', '.join(missing)}")
    if header["version"] != CHECKPOINT_VERSION:
        raise VersionMismatch(f"checkpoint version {header['version']}, expected {CHECKPOINT_VERSION}")
    if header.get("activation", "relu") not in ACTIVATIONS:
        raise VersionMismatch(f"unsupported activation {header.get('activation')!r}")
    if expect_input_dim is not None and header["input_dim"] != expect_input_dim:
        raise VersionMismatch(
            f"checkpoint feature dim {header['input_dim']}, pipeline expects {expect_input_dim}"
        )
    params = {}
    offset = 8 + hlen
    for name, shape in header["tensors"]:
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if len(data) < offset + nbytes:
            raise CorruptCheckpoint(f"truncated tensor {name}")
        arr = np.frombuffer(data[offset : offset + nbytes], dtype="<f8").astype(np.float64)
        params[name] = arr.reshape(shape)
        offset += nbytes
    if offset != len(data):
        raise CorruptCheckpoint(f"{len(data) - offset} bytes after the last tensor")
    return ModelParams(
        input_dim=header["input_dim"],
        hidden_dim=header["hidden_dim"],
        num_blocks=header["num_blocks"],
        refine_k=header["refine_k"],
        activation=header.get("activation", "relu"),
        version=header["version"],
        params=params,
    )
