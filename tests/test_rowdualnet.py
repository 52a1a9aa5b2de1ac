"""Model forward/loss/backward, gradient checks, training loop, checkpoints."""

import copy
import json
import struct

import numpy as np
import pytest

from dualseed import datagen, rowdualnet
from dualseed.errors import CorruptCheckpoint, EmptyDataset, ShapeMismatch, VersionMismatch
from dualseed.rowdualnet import (
    CHECKPOINT_VERSION,
    AdamW,
    ModelParams,
    PlateauScheduler,
    TrainConfig,
    backward,
    forward,
    init_model,
    load_checkpoint,
    loss,
    loss_and_grads,
    save_checkpoint,
    split_dataset,
    train,
    _sorted_k_costs,
)
from dualseed.lap_core import solve_cold, solve_seeded
from dualseed.warmstart import FEATURE_DIM, extract_features, min_trick


def _instance(n, seed, stream_index=0):
    return datagen.gen_labels(datagen.gen_dense(n, seed=seed, stream_index=stream_index))


def _zeroed(model):
    out = copy.deepcopy(model)
    for name in out.names():
        out.params[name][...] = 0.0
    return out


# ------------------------------------------------------------------- forward

def test_forward_all_zero_weights_outputs_bias():
    inst = _instance(5, seed=0)
    model = _zeroed(init_model(FEATURE_DIM, hidden_dim=8, seed=0))
    model.params["b_out"][0] = 3.5
    u_hat = forward(model, inst.features, inst.c)
    assert np.array_equal(u_hat, np.full(5, 3.5))


def test_forward_shape_contract():
    inst = _instance(5, seed=1)
    model = init_model(FEATURE_DIM, hidden_dim=8, seed=1)
    u_hat = forward(model, inst.features, inst.c)
    assert u_hat.shape == (5,)
    assert np.isfinite(u_hat).all()


def test_forward_padded_topk_matches_unpadded():
    inst = _instance(4, seed=2)
    small = init_model(FEATURE_DIM, hidden_dim=8, refine_k=4, seed=2)
    big = init_model(FEATURE_DIM, hidden_dim=8, refine_k=16, seed=2)
    for name in small.names():
        if name != "w_ref":
            big.params[name] = small.params[name].copy()
    big.params["w_ref"][...] = 0.0
    big.params["w_ref"][:4] = small.params["w_ref"]
    u_small = forward(small, inst.features, inst.c)
    u_big = forward(big, inst.features, inst.c)
    assert np.array_equal(u_small, u_big)
    assert np.isfinite(u_big).all()


@pytest.mark.parametrize("k", [1, 4, 9, 10, 16])
def test_sorted_k_costs_matches_full_sort(k, monkeypatch):
    rng = np.random.default_rng(k)
    values = rng.integers(0, 4, (7, 9)).astype(np.float64)
    srows = np.sort(values, axis=1)
    if k <= 9:
        expected = srows[:, :k]
    else:
        expected = np.concatenate([srows, np.repeat(srows[:, -1:], k - 9, axis=1)], axis=1)
    for rows_per_block in (1, 3, 7):  # blocks of rows give the same bits
        monkeypatch.setattr(rowdualnet, "BLOCK_ENTRIES", rows_per_block * 9)
        assert np.array_equal(_sorted_k_costs(values, k), expected)


def test_forward_row_set_equivariance_exact():
    inst = _instance(12, seed=3)
    model = init_model(FEATURE_DIM, hidden_dim=16, seed=3)
    u_hat = forward(model, inst.features, inst.c)
    rng = np.random.default_rng(3)
    perm = rng.permutation(12)
    u_perm = forward(model, inst.features[perm], inst.c.values[perm])
    assert np.array_equal(u_perm, u_hat[perm])


def test_forward_rejects_wrong_shapes():
    inst = _instance(5, seed=4)
    model = init_model(FEATURE_DIM + 3, hidden_dim=8, seed=4)
    with pytest.raises(ShapeMismatch):
        forward(model, inst.features, inst.c)  # too few feature columns
    model = init_model(FEATURE_DIM, hidden_dim=8, seed=4)
    with pytest.raises(ShapeMismatch):
        forward(model, inst.features[:3], inst.c)  # n mismatch


# ---------------------------------------------------------------------- loss

def test_loss_zero_at_optimum():
    inst = _instance(8, seed=5)
    total, internals = loss(inst.u_star, inst, 0.1)
    assert internals.mae == 0.0
    assert total == pytest.approx(0.0, abs=1e-12)


def test_loss_gauge_shift_is_pure_mae():
    inst = _instance(8, seed=6)
    for shift in (0.7, -2.0):
        total, internals = loss(inst.u_star + shift, inst, 0.1)
        assert internals.mae == pytest.approx(abs(shift), abs=1e-12)
        assert internals.slack == pytest.approx(0.0, abs=1e-12)
        assert total == pytest.approx(abs(shift), abs=1e-12)


def test_loss_lambda_zero_is_plain_mae():
    inst = _instance(8, seed=7)
    rng = np.random.default_rng(7)
    u_hat = rng.normal(0.0, 1.0, 8)
    total, internals = loss(u_hat, inst, 0.0)
    assert total == internals.mae
    assert internals.mae == pytest.approx(np.abs(u_hat - inst.u_star).mean(), abs=1e-15)


def test_loss_nonnegative_and_zero_only_at_optimum():
    rng = np.random.default_rng(8)
    for trial in range(20):
        inst = _instance(6, seed=8, stream_index=trial)
        u_hat = rng.normal(0.0, rng.uniform(0.01, 3.0), 6)
        total, _ = loss(u_hat, inst, 0.1)
        assert total >= 0.0
        nudged, _ = loss(inst.u_star + 1e-3 * rng.normal(size=6), inst, 0.1)
        assert nudged > 0.0


# ------------------------------------------------------------------ backward

def _fd_loss(model, inst, lambda_cs):
    u_hat = forward(model, inst.features, inst.c)
    return loss(u_hat, inst, lambda_cs)[0]


@pytest.mark.parametrize("activation", ["relu", "silu"])
def test_gradcheck_finite_differences(activation):
    """Central finite differences vs analytic gradients on a tiny model.

    Pass per entry if |a - f| <= 1e-8 (both effectively zero at finite
    difference noise floor) or relative error <= 1e-4.
    """
    h = 1e-5
    worst = 0.0
    for seed in range(5):
        inst = _instance(6, seed=100 + seed)
        model = init_model(
            FEATURE_DIM, hidden_dim=8, num_blocks=3, refine_k=3, seed=seed, activation=activation
        )
        _, grads = loss_and_grads(model, inst.features, inst.c, inst, 0.1)
        for name in model.names():
            tensor = model.params[name]
            flat = tensor.reshape(-1)
            gflat = grads[name].reshape(-1)
            for idx in range(flat.shape[0]):
                orig = flat[idx]
                flat[idx] = orig + h
                up = _fd_loss(model, inst, 0.1)
                flat[idx] = orig - h
                down = _fd_loss(model, inst, 0.1)
                flat[idx] = orig
                fd = (up - down) / (2.0 * h)
                a = gflat[idx]
                diff = abs(a - fd)
                if diff <= 1e-8:
                    continue
                rel = diff / max(abs(a), abs(fd))
                worst = max(worst, rel)
                assert rel <= 1e-4, f"{name}[{idx}] analytic {a} vs fd {fd} (seed {seed})"
    assert worst <= 1e-4


def test_backward_bias_gradient_is_mean_sign():
    inst = _instance(10, seed=9)
    model = init_model(FEATURE_DIM, hidden_dim=8, seed=9)
    model.params["w_ref"][...] = 0.0  # u_hat = h @ w_out + b_out exactly
    u_hat = forward(model, inst.features, inst.c)
    grads = backward(model, inst.features, inst.c, inst, 0.0)
    expected = np.sign(u_hat - inst.u_star).sum() / 10.0
    assert grads["b_out"][0] == pytest.approx(expected, abs=1e-12)


def test_backward_slack_gauge_direction_cancels():
    # With w_ref zeroed, d u_hat / d b_out = 1 for every row, so the b_out
    # gradient is the sum of per-row loss gradients: the slackness term's
    # contributions (-lambda at the edge row, +lambda at the argmin row)
    # cancel in that sum, leaving the MAE part only.
    inst = _instance(10, seed=10)
    model = init_model(FEATURE_DIM, hidden_dim=8, seed=10)
    model.params["w_ref"][...] = 0.0
    g0 = backward(model, inst.features, inst.c, inst, 0.0)
    g1 = backward(model, inst.features, inst.c, inst, 0.5)
    assert g1["b_out"][0] == pytest.approx(g0["b_out"][0], abs=1e-12)


# ------------------------------------------------------------------ training

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(lambda_cs=-0.1)


def test_train_rejects_empty_dataset():
    with pytest.raises(EmptyDataset):
        train([], TrainConfig(epochs=1))


def test_split_dataset_shapes():
    cfg = TrainConfig()
    tr, va = split_dataset(10, cfg)
    assert len(va) == 1 and len(tr) == 9
    assert sorted(np.concatenate([tr, va]).tolist()) == list(range(10))
    one_tr, one_va = split_dataset(1, cfg)
    assert one_tr.tolist() == [0] and one_va.tolist() == [0]


def test_train_lr_zero_leaves_parameters_unchanged():
    dataset = [_instance(6, seed=11, stream_index=i) for i in range(3)]
    model = init_model(FEATURE_DIM, hidden_dim=8, seed=11)
    before = copy.deepcopy(model.params)
    trained, _ = train(dataset, TrainConfig(lr=0.0, epochs=3), model=model)
    for name in trained.names():
        assert np.array_equal(trained.params[name], before[name])


def test_train_bitwise_determinism():
    dataset = [_instance(6, seed=12, stream_index=i) for i in range(5)]
    cfg = TrainConfig(epochs=5, batch=2, seed=3)
    m1, log1 = train(dataset, cfg, model=init_model(FEATURE_DIM, hidden_dim=8, seed=cfg.seed))
    m2, log2 = train(dataset, cfg, model=init_model(FEATURE_DIM, hidden_dim=8, seed=cfg.seed))
    for name in m1.names():
        assert np.array_equal(m1.params[name], m2.params[name])
    # every log field but the epoch's wall time is a function of the inputs
    def timeless(log):
        return [{k: v for k, v in e.items() if k != "epoch_ns"} for e in log]

    assert timeless(log1) == timeless(log2)


def test_train_single_instance_overfit():
    dataset = [_instance(8, seed=13)]
    cfg = TrainConfig(epochs=200, batch=1, lambda_cs=0.1, seed=0)
    _, log = train(dataset, cfg, model=init_model(FEATURE_DIM, hidden_dim=16, seed=cfg.seed))
    assert log[-1]["train_loss"] < log[0]["train_loss"]
    assert log[-1]["train_loss"] < 0.1 * log[0]["train_loss"]


def test_train_progress_on_small_corpus():
    """Validation MAE drops by at least half on a 50-instance n=64 corpus."""
    dataset = [_instance(64, seed=14, stream_index=i) for i in range(50)]
    cfg = TrainConfig(epochs=60, seed=0)
    model0 = init_model(FEATURE_DIM, seed=cfg.seed)
    _, val_idx = split_dataset(len(dataset), cfg)

    def val_mae(m):
        errs = [
            np.abs(forward(m, dataset[int(i)].features, dataset[int(i)].c) - dataset[int(i)].u_star).mean()
            for i in val_idx
        ]
        return float(np.mean(errs))

    before = val_mae(model0)
    trained, _ = train(dataset, cfg, model=model0)
    after = val_mae(trained)
    assert after < 0.5 * before, f"val MAE {before:.4f} -> {after:.4f}"


def test_train_small_n_transfers_to_larger_n():
    """A model trained at n=32 seeds n=128 better than a cold start.

    Optimal potentials shrink with n while the z-scored features carry no
    scale, so a head predicting in absolute cost units spreads its potentials
    too wide at larger n; min-trick then sends most column minima to a few
    rows and the greedy match rate falls below the cold solver's.
    """
    dataset = [_instance(32, seed=22, stream_index=i) for i in range(40)]
    init = init_model(FEATURE_DIM, hidden_dim=32, seed=0)
    model, _ = train(dataset, TrainConfig(epochs=30, seed=0), model=init)
    wins = 0
    for idx in range(10):
        c = datagen.gen_dense(128, seed=23, stream_index=idx)
        _, _, cold = solve_cold(c)
        u_hat = forward(model, extract_features(c), c)
        _, _, warm = solve_seeded(c, min_trick(c, u_hat))
        wins += warm.greedy_matched > cold.greedy_matched
    assert wins >= 8, f"model beats cold greedy matching on {wins}/10 instances"


def test_train_log_schema():
    dataset = [_instance(6, seed=15, stream_index=i) for i in range(3)]
    _, log = train(dataset, TrainConfig(epochs=4), model=init_model(FEATURE_DIM, hidden_dim=8))
    assert len(log) == 4
    assert [e["epoch"] for e in log] == [0, 1, 2, 3]
    for entry in log:
        assert set(entry) == {
            "epoch", "train_loss", "val_loss", "val_mae", "val_slack", "lr", "epoch_ns",
        }
        assert np.isfinite(entry["train_loss"]) and np.isfinite(entry["val_loss"])
        assert entry["val_mae"] >= 0.0 and entry["val_slack"] >= 0.0
        # the validation loss is its two terms, weighted by lambda_cs
        assert entry["val_loss"] == pytest.approx(entry["val_mae"] + 0.1 * entry["val_slack"])
        assert isinstance(entry["epoch_ns"], int) and entry["epoch_ns"] > 0


# ----------------------------------------------------------------- optimizer

def test_adamw_first_step_hand_computed():
    opt = AdamW(["p"], [(1,)], lr=0.1, weight_decay=0.01)
    params = {"p": np.array([1.0])}
    opt.step(params, {"p": np.array([2.0])})
    # m-hat = g, v-hat = g^2 -> update = g / (|g| + eps); then decoupled decay.
    stepped = 1.0 - 0.1 * (2.0 / (2.0 + 1e-8))
    expected = stepped * (1.0 - 0.1 * 0.01)
    assert params["p"][0] == pytest.approx(expected, abs=1e-15)


def test_plateau_scheduler_reduces_after_patience():
    opt = AdamW(["p"], [(1,)], lr=1.0, weight_decay=0.0)
    sched = PlateauScheduler(opt, factor=0.5, patience=2)
    for v in (1.0, 0.9):
        sched.step(v)
    assert opt.lr == 1.0
    sched.step(0.95)
    assert opt.lr == 1.0
    sched.step(0.92)
    assert opt.lr == 0.5  # two bad epochs at patience 2
    sched.step(0.91)
    assert opt.lr == 0.5  # counter reset after the reduction


# --------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    inst = _instance(7, seed=16)
    model = init_model(FEATURE_DIM, hidden_dim=8, refine_k=5, seed=16)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert (loaded.input_dim, loaded.hidden_dim, loaded.num_blocks, loaded.refine_k) == (
        FEATURE_DIM, 8, model.num_blocks, 5,
    )
    for name in model.names():
        assert np.array_equal(loaded.params[name], model.params[name])
    u_orig = forward(model, inst.features, inst.c)
    u_loaded = forward(loaded, inst.features, inst.c)
    assert np.array_equal(u_orig, u_loaded)


def test_checkpoint_truncation_rejected(tmp_path):
    model = init_model(FEATURE_DIM, hidden_dim=8, seed=17)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    for cut in (2, 6, len(blob) // 2, len(blob) - 1):
        clipped = tmp_path / f"cut{cut}.ckpt"
        clipped.write_bytes(blob[:cut])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(str(clipped))


def test_checkpoint_bad_magic_rejected(tmp_path):
    model = init_model(FEATURE_DIM, hidden_dim=8, seed=18)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(str(bad))


def test_checkpoint_unknown_version_rejected(tmp_path):
    model = init_model(FEATURE_DIM, hidden_dim=8, seed=19)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    current = f'"version": {CHECKPOINT_VERSION}'.encode()
    assert current in blob
    # 2 held 21-column weights; CHECKPOINT_VERSION + 1 is from the future
    for version in (2, CHECKPOINT_VERSION + 1):
        bad = tmp_path / f"v{version}.ckpt"
        bad.write_bytes(blob.replace(current, f'"version": {version}'.encode(), 1))
        with pytest.raises(VersionMismatch):
            load_checkpoint(str(bad))


def test_checkpoint_preserves_activation_metadata(tmp_path):
    inst = _instance(6, seed=21)
    model = init_model(FEATURE_DIM, hidden_dim=8, seed=21, activation="silu")
    path = str(tmp_path / "silu.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.activation == "silu"
    assert np.array_equal(
        forward(model, inst.features, inst.c), forward(loaded, inst.features, inst.c)
    )
    blob = (tmp_path / "silu.ckpt").read_bytes()
    assert b'"activation": "silu"' in blob
    bad = tmp_path / "badact.ckpt"
    bad.write_bytes(blob.replace(b'"activation": "silu"', b'"activation": "gelu"', 1))
    with pytest.raises(VersionMismatch):
        load_checkpoint(str(bad))
    with pytest.raises(ValueError):
        init_model(FEATURE_DIM, hidden_dim=8, activation="tanh")


def test_checkpoint_feature_dim_mismatch_rejected(tmp_path):
    model = init_model(FEATURE_DIM + 3, hidden_dim=8, seed=20)
    path = str(tmp_path / "wide.ckpt")
    save_checkpoint(model, path)
    with pytest.raises(VersionMismatch):
        load_checkpoint(path, expect_input_dim=FEATURE_DIM)
    ok = load_checkpoint(path, expect_input_dim=FEATURE_DIM + 3)
    assert ok.input_dim == FEATURE_DIM + 3


def _rewrite_header(blob: bytes, edit) -> bytes:
    """The checkpoint blob with edit(header_dict) applied to its JSON header."""
    (hlen,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + hlen])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    return blob[:4] + struct.pack("<I", len(new)) + new + blob[8 + hlen :]


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    model = init_model(FEATURE_DIM, hidden_dim=8, seed=22)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(str(padded))


@pytest.mark.parametrize(
    "key", ["version", "input_dim", "hidden_dim", "num_blocks", "refine_k", "tensors"]
)
def test_checkpoint_missing_header_key_rejected(tmp_path, key):
    model = init_model(FEATURE_DIM, hidden_dim=8, seed=23)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    bad = tmp_path / "missing.ckpt"
    bad.write_bytes(_rewrite_header(path.read_bytes(), lambda h: h.pop(key)))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(str(bad))


def test_checkpoint_non_object_header_rejected(tmp_path):
    header = b"7"
    bad = tmp_path / "number.ckpt"
    bad.write_bytes(b"RDN1" + struct.pack("<I", len(header)) + header)
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(str(bad))


def test_checkpoint_legacy_refine_pool_key_accepted(tmp_path):
    """Headers once carried refine_pool, which nothing read; such files load."""
    inst = _instance(6, seed=24)
    model = init_model(FEATURE_DIM, hidden_dim=8, seed=24)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    blob = path.read_bytes()
    assert b"refine_pool" not in blob
    legacy = tmp_path / "legacy.ckpt"
    legacy.write_bytes(_rewrite_header(blob, lambda h: h.update(refine_pool="sort")))
    loaded = load_checkpoint(str(legacy))
    assert np.array_equal(
        forward(model, inst.features, inst.c), forward(loaded, inst.features, inst.c)
    )
