"""Generators, label construction, and file format tests."""

import struct

import numpy as np
import pytest

from dualseed.datagen import (
    FORMAT_VERSION,
    MATRIX_MAGIC,
    BlockParams,
    LabeledInstance,
    default_sentinel,
    gen_block,
    gen_dense,
    gen_labels,
    read_csv,
    read_dataset,
    read_matrix,
    sparsify,
    transpose_instance,
    write_dataset,
    write_matrix,
)
from dualseed.errors import (
    BadMagic,
    InfeasibleMask,
    NonFinite,
    NonSquare,
    TruncatedFile,
    VersionMismatch,
)
from dualseed.lap_core import CostMatrix, solve_cold
from dualseed.warmstart import FEATURE_DIM


# ----------------------------------------------------------------- gen_dense

def test_gen_dense_deterministic():
    a = gen_dense(4, seed=7)
    b = gen_dense(4, seed=7)
    assert np.array_equal(a.values, b.values)
    c = gen_dense(4, seed=8)
    assert not np.array_equal(a.values, c.values)
    d = gen_dense(4, seed=7, stream_index=1)
    assert not np.array_equal(a.values, d.values)


def test_gen_dense_distribution():
    c = gen_dense(2048, seed=0)
    assert 0.49 <= c.values.mean() <= 0.51
    assert c.values.min() >= 0.0
    assert c.values.max() <= 1.0


def test_gen_dense_rejects_empty():
    with pytest.raises(ValueError):
        gen_dense(0, seed=0)


# ----------------------------------------------------------------- gen_block

def test_block_params_defaults_and_validation():
    p = BlockParams(n=50)
    assert p.num_groups == 5
    assert p.noise_sigma == pytest.approx(0.05 * 15.0)
    with pytest.raises(ValueError):
        BlockParams(n=0)
    with pytest.raises(ValueError):
        BlockParams(n=10, levels=(1.0, 2.0), level_probs=(0.9, 0.2))
    with pytest.raises(ValueError):
        BlockParams(n=10, noise_sigma=-1.0)


def test_gen_block_zero_noise_piecewise_constant():
    p = BlockParams(n=30, num_groups=3, noise_sigma=0.0, seed=5)
    c = gen_block(p)
    assert len(np.unique(c.values)) <= 9  # at most L^2 distinct base costs
    # every 10x10 group block is constant
    for gi in range(3):
        for gj in range(3):
            blk = c.values[10 * gi : 10 * (gi + 1), 10 * gj : 10 * (gj + 1)]
            assert np.unique(blk).size == 1
    again = gen_block(p)
    assert np.array_equal(c.values, again.values)


def test_gen_block_diagonal_groups_attract_assignment():
    p = BlockParams(n=20, num_groups=2, noise_sigma=0.0, seed=6)
    c = gen_block(p)
    # frozen seed chosen so cross-group base costs exceed both diagonals
    assert min(c.values[0, 10], c.values[10, 0]) > max(c.values[0, 0], c.values[10, 10])
    assignment, _, _ = solve_cold(c)
    group = np.arange(20) // 10
    assert np.array_equal(group[assignment.row_to_col], group)


def test_gen_block_noise_clamped_nonnegative():
    p = BlockParams(n=40, num_groups=4, noise_sigma=3.0, seed=1)
    c = gen_block(p)
    assert c.values.min() >= 0.0


# ------------------------------------------------------------------ sparsify

def test_sparsify_zero_fraction_is_identity():
    c = gen_dense(8, seed=10)
    out = sparsify(c, 0.0, seed=0)
    assert np.array_equal(out.values, c.values)
    assert out.values is not c.values  # a copy, not an alias


def test_sparsify_half_counts_and_feasibility():
    c = gen_dense(64, seed=11)
    out = sparsify(c, 0.5, seed=11)
    sentinel = out.sentinel
    assert sentinel == default_sentinel(c.values)
    frac = (out.values == sentinel).mean()
    assert abs(frac - 0.5) <= 0.02
    assignment, duals, _ = solve_cold(out)
    used = out.values[np.arange(64), assignment.row_to_col]
    assert (used != sentinel).all()


def test_sparsify_every_row_and_column_keeps_an_edge():
    c = gen_dense(12, seed=12)
    out = sparsify(c, 0.9, seed=12)
    real = out.values != out.sentinel
    assert real.any(axis=0).all() and real.any(axis=1).all()


def test_sparsify_infeasible_mask():
    c = gen_dense(3, seed=13)
    with pytest.raises(InfeasibleMask):
        sparsify(c, 0.9, seed=0)  # 8 of 9 edges cannot spare a matching
    with pytest.raises(ValueError):
        sparsify(c, 0.95, seed=0)


def test_sparsify_deterministic():
    c = gen_dense(16, seed=14)
    a = sparsify(c, 0.4, seed=5)
    b = sparsify(c, 0.4, seed=5)
    assert np.array_equal(a.values, b.values)
    other = sparsify(c, 0.4, seed=6)
    assert not np.array_equal(a.values, other.values)


# ---------------------------------------------------------------- gen_labels

def test_gen_labels_gauge_identity_exact():
    # All entries of [[2,3],[4,5]] are tight for u=[2,4], v=[0,1]; any gauge
    # fix keeps the dual objective at the optimal cost 7 and zero-means u*.
    c = CostMatrix.from_array(np.array([[2.0, 3.0], [4.0, 5.0]]))
    inst = gen_labels(c, center=False)
    assert inst.u_star.mean() == 0.0
    assert inst.u_star.sum() + inst.v_star.sum() == 7.0
    assert inst.u_star[1] - inst.u_star[0] == 2.0  # gauge-invariant gap


def test_gen_labels_invariants_random():
    for trial in range(10):
        inst = gen_labels(gen_dense(24, seed=15, stream_index=trial))
        assert abs(inst.u_star.mean()) < 1e-12
        r = (inst.c.values - inst.u_star[:, None]) - inst.v_star[None, :]
        assert r.min() >= -1e-9
        ei, ej = inst.optimal_edges[:, 0], inst.optimal_edges[:, 1]
        assert np.abs(r[ei, ej]).max() <= 1e-9
        assert sorted(ej.tolist()) == list(range(24))
        assert inst.features.shape == (24, FEATURE_DIM)


def test_gen_labels_centered_vs_vertex_duals_same_objective():
    c = gen_dense(16, seed=16)
    a, _, _ = solve_cold(c)
    for center in (True, False):
        inst = gen_labels(c, center=center)
        assert inst.u_star.sum() + inst.v_star.sum() == pytest.approx(a.total_cost, abs=1e-9)


def test_gen_labels_center_sweeps_stay_feasible_and_optimal():
    c = gen_dense(20, seed=35)
    a, _, _ = solve_cold(c)
    for sweeps in (1, 10):
        inst = gen_labels(c, center_sweeps=sweeps)
        assert inst.u_star.sum() + inst.v_star.sum() == pytest.approx(a.total_cost, abs=1e-9)
        r = (c.values - inst.u_star[:, None]) - inst.v_star[None, :]
        assert r.min() >= -1e-9


def test_transpose_instance_mirrors_labels_exactly():
    inst = gen_labels(gen_dense(18, seed=36))
    t = transpose_instance(inst)
    assert np.array_equal(t.c.values, inst.c.values.T)
    assert abs(t.u_star.mean()) < 1e-12
    # same optimal objective from the column side
    assert t.u_star.sum() + t.v_star.sum() == pytest.approx(
        inst.u_star.sum() + inst.v_star.sum(), abs=1e-9
    )
    # reduced costs transpose with the matrix
    r = (inst.c.values - inst.u_star[:, None]) - inst.v_star[None, :]
    r_t = (t.c.values - t.u_star[:, None]) - t.v_star[None, :]
    assert np.abs(r_t - r.T).max() <= 1e-12
    # assignment inverts: edge (i, j) becomes edge (j, i)
    ei, ej = inst.optimal_edges[:, 0], inst.optimal_edges[:, 1]
    assert np.array_equal(t.optimal_edges[ej, 1], ei)
    assert np.abs(r_t[t.optimal_edges[:, 0], t.optimal_edges[:, 1]]).max() <= 1e-9
    assert t.features.shape == inst.features.shape
    # transposing twice returns to the original labels (up to the gauge shift,
    # which is zero-mean on both sides after one round trip)
    tt = transpose_instance(t)
    assert np.array_equal(tt.c.values, inst.c.values)
    assert np.allclose(tt.u_star, inst.u_star - inst.u_star.mean(), atol=1e-12)


def test_transpose_instance_keeps_sentinel():
    c = sparsify(gen_dense(16, seed=37), 0.2, seed=37)
    inst = gen_labels(c)
    t = transpose_instance(inst)
    assert t.c.sentinel == c.sentinel


# -------------------------------------------------------------- file formats

def test_matrix_roundtrip_bit_exact(tmp_path):
    c = gen_dense(9, seed=17)
    path = str(tmp_path / "m.lapm")
    write_matrix(path, c)
    back = read_matrix(path)
    assert np.array_equal(back.values, c.values)
    assert back.sentinel is None


def test_matrix_roundtrip_with_sentinel(tmp_path):
    c = sparsify(gen_dense(10, seed=18), 0.3, seed=18)
    path = str(tmp_path / "m.lapm")
    write_matrix(path, c)
    back = read_matrix(path)
    assert np.array_equal(back.values, c.values)
    assert back.sentinel == c.sentinel


def test_matrix_bad_magic(tmp_path):
    path = tmp_path / "m.lapm"
    write_matrix(str(path), gen_dense(3, seed=19))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagic):
        read_matrix(str(path))


def test_matrix_truncation_and_trailing(tmp_path):
    path = tmp_path / "m.lapm"
    write_matrix(str(path), gen_dense(3, seed=20))
    blob = path.read_bytes()
    short = tmp_path / "short.lapm"
    short.write_bytes(blob[:-4])
    with pytest.raises(TruncatedFile):
        read_matrix(str(short))
    long = tmp_path / "long.lapm"
    long.write_bytes(blob + b"\x00")
    with pytest.raises(TruncatedFile):
        read_matrix(str(long))


def test_matrix_version_mismatch(tmp_path):
    path = tmp_path / "m.lapm"
    write_matrix(str(path), gen_dense(3, seed=21))
    blob = bytearray(path.read_bytes())
    blob[4] = 9  # version byte follows the magic
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        read_matrix(str(path))


def test_matrix_nonfinite_rejected(tmp_path):
    path = tmp_path / "m.lapm"
    write_matrix(str(path), gen_dense(2, seed=22))
    blob = bytearray(path.read_bytes())
    blob[-8:] = np.float64(np.nan).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(NonFinite):
        read_matrix(str(path))


def test_matrix_zero_size_rejected_on_load(tmp_path):
    # header written by hand: magic, version, n = 0, no sentinel; no payload
    path = tmp_path / "empty.lapm"
    path.write_bytes(MATRIX_MAGIC + struct.pack("<BIBd", FORMAT_VERSION, 0, 0, 0.0))
    with pytest.raises(NonSquare):
        read_matrix(str(path))


def _dataset_equal(a: LabeledInstance, b: LabeledInstance):
    assert np.array_equal(a.c.values, b.c.values)
    assert np.array_equal(a.u_star, b.u_star)
    assert np.array_equal(a.v_star, b.v_star)
    assert np.array_equal(a.optimal_edges, b.optimal_edges)
    assert np.array_equal(a.features, b.features)


def test_dataset_roundtrip_bit_exact(tmp_path):
    dataset = [gen_labels(gen_dense(6, seed=23, stream_index=i)) for i in range(4)]
    path = str(tmp_path / "d.lapd")
    write_dataset(path, dataset)
    back = read_dataset(path)
    assert len(back) == 4
    for a, b in zip(dataset, back):
        _dataset_equal(a, b)


def test_dataset_roundtrip_with_aux(tmp_path):
    dataset = [gen_labels(gen_dense(5, seed=24, stream_index=i)) for i in range(2)]
    aux = {
        "lr_weights": np.arange(22, dtype=np.float64).reshape(2, 11),
        "median_u": np.linspace(-1, 1, 5),
    }
    path = str(tmp_path / "d.lapd")
    write_dataset(path, dataset, aux=aux)
    back, aux_back = read_dataset(path, return_aux=True)
    assert len(back) == 2
    assert set(aux_back) == {"lr_weights", "median_u"}
    for key, arr in aux.items():
        assert np.array_equal(aux_back[key], arr)
        assert aux_back[key].shape == arr.shape


def test_dataset_truncation(tmp_path):
    dataset = [gen_labels(gen_dense(4, seed=25))]
    path = tmp_path / "d.lapd"
    write_dataset(str(path), dataset)
    blob = path.read_bytes()
    short = tmp_path / "short.lapd"
    short.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TruncatedFile):
        read_dataset(str(short))


# ----------------------------------------------------------------- CSV entry

def test_read_csv_exact_integers(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5,6\n7,8,10\n")
    c = read_csv(str(path))
    assert np.array_equal(c.values, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]]))


def test_read_csv_nan_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\nnan,4\n")
    with pytest.raises(NonFinite):
        read_csv(str(path))


def test_read_csv_empty_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with pytest.raises(TruncatedFile):
        read_csv(str(path))
