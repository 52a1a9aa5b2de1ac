"""End-to-end command-line workflows at tiny sizes."""

import json

import numpy as np
import pytest

from dualseed.bench import ALL_STRATEGIES
from dualseed.cli import main
from dualseed.datagen import BlockParams, gen_block, gen_dense, read_dataset, read_matrix, write_matrix
from dualseed.lap_core import solve_cold
from dualseed.rowdualnet import init_model, load_checkpoint, save_checkpoint
from dualseed.warmstart import FEATURE_DIM


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_matrix_and_dataset(tmp_path, capsys):
    mpath = str(tmp_path / "m.lapm")
    code, out, _ = run(capsys, "gen", "matrix", "--n", "8", "--seed", "3", "--out", mpath)
    assert code == 0
    c = read_matrix(mpath)
    assert c.n == 8 and c.sentinel is None

    dpath = str(tmp_path / "d.lapd")
    code, out, _ = run(
        capsys, "gen", "dataset", "--n", "8", "--count", "4", "--seed", "3", "--out", dpath
    )
    assert code == 0 and "4 labeled instances" in out
    dataset = read_dataset(dpath)
    assert len(dataset) == 4
    assert dataset[0].features.shape == (8, FEATURE_DIM)


def test_gen_block_sparse_matrix(tmp_path, capsys):
    mpath = str(tmp_path / "b.lapm")
    code, _, _ = run(
        capsys, "gen", "matrix", "--n", "12", "--generator", "block",
        "--block-groups", "3", "--mask-fraction", "0.2", "--seed", "5", "--out", mpath,
    )
    assert code == 0
    c = read_matrix(mpath)
    assert c.sentinel is not None
    assert (c.values == c.sentinel).mean() == pytest.approx(0.2, abs=0.05)


def test_train_solve_roundtrip(tmp_path, capsys):
    dpath = str(tmp_path / "train.lapd")
    ckpt = str(tmp_path / "model.ckpt")
    log = str(tmp_path / "log.jsonl")
    run(capsys, "gen", "dataset", "--n", "8", "--count", "4", "--seed", "7", "--out", dpath)
    code, out, _ = run(
        capsys, "train", "--dataset", dpath, "--out", ckpt,
        "--epochs", "2", "--batch", "2", "--log", log,
    )
    assert code == 0 and "trained 2 epochs" in out
    model = load_checkpoint(ckpt, expect_input_dim=FEATURE_DIM)
    assert model.input_dim == FEATURE_DIM
    entries = [json.loads(line) for line in open(log)]
    assert len(entries) == 2 and entries[0]["epoch"] == 0

    mpath = str(tmp_path / "m.lapm")
    run(capsys, "gen", "matrix", "--n", "8", "--seed", "9", "--out", mpath)
    outputs = {}
    for strategy in ("cold", "neural", "row_mean", "random", "subgradient"):
        argv = ["solve", mpath, "--strategy", strategy]
        if strategy == "neural":
            argv += ["--checkpoint", ckpt]
        assign_path = str(tmp_path / f"{strategy}.assign")
        argv += ["--out", assign_path]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outputs[strategy] = float(out.splitlines()[0].split()[1])
        perm = np.loadtxt(assign_path, dtype=int)
        assert sorted(perm.tolist()) == list(range(8))
    assert len({round(v, 9) for v in outputs.values()}) == 1  # same optimal cost


def test_solve_runs_every_registry_strategy(tmp_path, capsys):
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(init_model(FEATURE_DIM, hidden_dim=8, seed=0), ckpt)
    mpath = str(tmp_path / "m.lapm")
    write_matrix(mpath, gen_dense(10, seed=21))
    needs_corpus = {"linreg", "median"}
    costs = {}
    for strategy in ALL_STRATEGIES:
        code, out, err = run(capsys, "solve", mpath, "--strategy", strategy, "--checkpoint", ckpt)
        if strategy in needs_corpus:
            assert code == 1, strategy
            assert "error:" in err and "bench corpus" in err, strategy
            continue
        assert code == 0, (strategy, err)
        costs[strategy] = out.splitlines()[0]
    assert set(costs) == set(ALL_STRATEGIES) - needs_corpus
    assert len(set(costs.values())) == 1  # the same printed optimal cost


@pytest.mark.parametrize("strategy", ["cold", "row_min"])
def test_solve_prints_solver_counters_and_phases(tmp_path, capsys, strategy):
    mpath = str(tmp_path / "m.lapm")
    write_matrix(mpath, gen_dense(12, seed=4))
    code, out, _ = run(capsys, "solve", mpath, "--strategy", strategy)
    assert code == 0
    lines = out.splitlines()
    fields = lines[1].split()
    counters = dict(zip(fields[-10::2], map(int, fields[-9::2])))
    assert list(counters) == ["greedy_matched", "dual_update_steps", "augment_searches",
                              "equality_searches", "scanned_columns"]
    assert counters["augment_searches"] <= counters["scanned_columns"]
    assert counters["equality_searches"] <= counters["augment_searches"]
    phases = [line.split(":")[0].strip() for line in lines if line.strip().startswith("solver.")]
    assert phases == ["solver.init", "solver.greedy", "solver.augment"]
    stages = [line.split(":")[0].strip() for line in lines[2:] if not line.strip().startswith("solver.")]
    assert stages == ([] if strategy == "cold" else ["features", "model", "min_trick", "fallback_check", "solver"])


def test_solve_prints_equality_searches_on_tied_costs(tmp_path, capsys):
    # block costs end every cold search at distance 0, on the equality graph
    c = gen_block(BlockParams(n=64, seed=3))
    mpath = str(tmp_path / "b.lapm")
    write_matrix(mpath, c)
    code, out, _ = run(capsys, "solve", mpath, "--strategy", "cold")
    assert code == 0
    fields = out.splitlines()[1].split()
    counters = dict(zip(fields[::2], map(int, fields[1::2])))
    stats = solve_cold(c)[2]
    assert counters["equality_searches"] == stats.equality_searches > 0
    assert counters["augment_searches"] == stats.augment_searches


def test_train_activation_and_transpose_flags(tmp_path, capsys):
    dpath = str(tmp_path / "train.lapd")
    ckpt = str(tmp_path / "model.ckpt")
    run(capsys, "gen", "dataset", "--n", "6", "--count", "3", "--seed", "11", "--out", dpath)
    code, out, _ = run(
        capsys, "train", "--dataset", dpath, "--out", ckpt,
        "--epochs", "2", "--batch", "2", "--activation", "silu",
        "--augment-transpose", "--val-fraction", "0.25",
    )
    assert code == 0
    assert "on 6 instances" in out  # 3 originals + 3 transposes
    model = load_checkpoint(ckpt, expect_input_dim=FEATURE_DIM)
    assert model.activation == "silu"


def test_solve_csv_input(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n2,1\n")
    code, out, _ = run(capsys, "solve", str(path), "--strategy", "cold")
    assert code == 0
    assert out.splitlines()[0] == "cost 2.000000000"


def test_bench_and_report(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "generator = dense\nsizes = 10\ntrials = 3\nstrategies = cold,row_mean\nseed = 1\n"
    )
    records = str(tmp_path / "records.jsonl")
    summary = str(tmp_path / "summary.csv")
    code, out, _ = run(capsys, "bench", str(config), "--records", records, "--summary", summary)
    assert code == 0
    lines = open(summary).read().strip().splitlines()
    assert lines[0].startswith("strategy,n,trials,mean_ratio")
    assert len(lines) == 3

    code, out, _ = run(capsys, "report", "summary", records)
    assert code == 0 and out.strip().splitlines()[0] == lines[0]

    code, out, _ = run(capsys, "report", "breakdown", records)
    assert code == 0
    assert out.startswith("n,features_ms")


def test_sweep_noise_and_perm(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("generator = dense\nsizes = 10\ntrials = 2\nstrategies = cold\nseed = 2\n")
    code, out, _ = run(capsys, "sweep", "noise", str(config), "--values", "0,0.2")
    assert code == 0
    assert out.splitlines()[0] == "sigma,mean_rho,mean_dual_update_steps"
    assert len(out.strip().splitlines()) == 3

    config.write_text(
        "generator = dense\nsizes = 10\ntrials = 2\nstrategies = cold,row_mean\nseed = 2\n"
    )
    sweep_out = str(tmp_path / "perm.csv")
    code, out, _ = run(capsys, "sweep", "perm", str(config), "--num-perms", "3", "--out", sweep_out)
    assert code == 0
    assert open(sweep_out).read() == out


def test_cli_reports_package_errors(tmp_path, capsys):
    bad = tmp_path / "bad.lapm"
    bad.write_bytes(b"GARBAGE")
    code = main(["solve", str(bad), "--strategy", "cold"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err.lower()


@pytest.mark.parametrize("text", ["1,2\n3\n", "1,abc\n3,4\n"], ids=["ragged", "non-numeric"])
def test_solve_rejects_malformed_csv(tmp_path, capsys, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code, out, err = run(capsys, "solve", str(path), "--strategy", "cold")
    assert code == 1 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "line", ["trials = x", "trials = 0", "sizes = 0", "widgets = 3", "tau = -1",
             "strategies = cold,neural"]
)
@pytest.mark.parametrize("command", ["bench", "sweep"])
def test_bad_spec_file_is_a_typed_error(tmp_path, capsys, command, line):
    config = tmp_path / "exp.cfg"
    config.write_text(f"generator = dense\nsizes = 10\n{line}\n")
    argv = [command, str(config)] if command == "bench" else [command, "perm", str(config)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_train_on_one_by_one_instances_is_a_shape_error(tmp_path, capsys):
    dpath = str(tmp_path / "tiny.lapd")
    run(capsys, "gen", "dataset", "--n", "1", "--count", "2", "--out", dpath)
    code, _, err = run(capsys, "train", "--dataset", dpath, "--out", str(tmp_path / "m.ckpt"),
                       "--epochs", "1")
    assert code == 1
    assert err == f"error: features shape (1, 0) does not match input_dim={FEATURE_DIM}\n"


def test_train_rejects_zero_refine_k(tmp_path, capsys):
    dpath = str(tmp_path / "d.lapd")
    run(capsys, "gen", "dataset", "--n", "6", "--count", "2", "--out", dpath)
    code, _, err = run(capsys, "train", "--dataset", dpath, "--out", str(tmp_path / "m.ckpt"),
                       "--refine-k", "0")
    assert code == 1
    assert err == "error: refine_k must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ["solve", "m.lapm", "--refine-k", "3"],
    ["train", "--dataset", "d.lapd", "--out", "m.ckpt", "--tau", "9"],
    ["train", "--dataset", "d.lapd", "--out", "m.ckpt", "--eps", "0.1"],
])
def test_removed_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["warp"])
    assert exc.value.code == 2
