"""Command-line front end.

Subcommands: gen (datasets/matrices), train, solve (one matrix, one
strategy), bench (grid from a key=value config file), sweep
{noise|sparsity|topk|perm}, report (summaries from saved records).
"""

import argparse
import json
import sys

import numpy as np

from . import bench, datagen, rowdualnet
from .errors import DualseedError
from .warmstart import FEATURE_DIM, PipelineConfig


def cmd_gen(args) -> int:
    def instance(i):
        c = datagen.generate(args.generator, args.n, args.seed, i,
                             args.block_groups, args.block_noise)
        if args.mask_fraction > 0:
            c = datagen.sparsify(c, args.mask_fraction, args.seed, stream_index=i)
        return c

    if args.kind == "matrix":
        c = instance(0)
        datagen.write_matrix(args.out, c)
        print(f"wrote {args.out}: n={c.n} generator={args.generator}")
        return 0
    instances = [
        datagen.gen_labels(instance(i), center_sweeps=args.center_sweeps)
        for i in range(args.count)
    ]
    datagen.write_dataset(args.out, instances)
    print(f"wrote {args.out}: {args.count} labeled instances, n={args.n}")
    return 0


def cmd_train(args) -> int:
    dataset = datagen.read_dataset(args.dataset)
    if args.augment_transpose:
        dataset = dataset + [datagen.transpose_instance(inst) for inst in dataset]
    tc = rowdualnet.TrainConfig(
        lr=args.lr, weight_decay=args.weight_decay, lambda_cs=args.lambda_cs,
        batch=args.batch, epochs=args.epochs, seed=args.seed,
        val_fraction=args.val_fraction,
    )
    init = rowdualnet.init_model(
        FEATURE_DIM, refine_k=args.refine_k, seed=tc.seed, activation=args.activation
    )
    model, log = rowdualnet.train(dataset, tc, model=init)
    rowdualnet.save_checkpoint(model, args.out)
    if args.log:
        with open(args.log, "w") as fh:
            for entry in log:
                fh.write(json.dumps(entry) + "\n")
    print(
        f"trained {args.epochs} epochs on {len(dataset)} instances: "
        f"val loss {log[0]['val_loss']:.6f} -> {log[-1]['val_loss']:.6f}; wrote {args.out}"
    )
    return 0


def cmd_solve(args) -> int:
    c = datagen.read_csv(args.matrix) if args.matrix.endswith(".csv") else datagen.read_matrix(args.matrix)
    cfg = PipelineConfig(eps=args.eps, tau=args.tau)
    prep = {"seed": args.seed}
    if args.checkpoint is not None:
        prep["model"] = rowdualnet.load_checkpoint(args.checkpoint, expect_input_dim=FEATURE_DIM)
    assignment, report = bench.run_strategy(args.strategy, c, prep, cfg)
    stats = report.solve_stats
    counters = " ".join(f"{name} {getattr(stats, name)}" for name in (
        "greedy_matched", "dual_update_steps", "augment_searches", "equality_searches",
        "scanned_columns"))
    print(f"cost {assignment.total_cost:.9f}")
    if report.density_rho is None:  # cold: no gate and no pipeline stages
        print(counters)
    else:
        print(f"rho {report.density_rho:.3f} fallback {report.fallback_triggered} {counters}")
        for stage, ns in report.stage_times.items():
            print(f"  {stage}: {ns / 1e6:.3f} ms")
    for phase, ns in stats.phase_times.items():
        print(f"  solver.{phase}: {ns / 1e6:.3f} ms")
    if args.out:
        np.savetxt(args.out, assignment.row_to_col, fmt="%d")
    return 0


def cmd_bench(args) -> int:
    with open(args.config) as fh:
        spec = bench.parse_spec(fh.read())
    records = bench.run_experiment(spec, out_path=args.records)
    rows = bench.summarize(records)
    csv_text = bench.summary_csv(rows)
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(csv_text)
    print(csv_text, end="")
    return 0


def cmd_sweep(args) -> int:
    with open(args.config) as fh:
        spec = bench.parse_spec(fh.read())
    if args.axis == "noise":
        sigmas = [float(x) for x in args.values.split(",")] if args.values else [0.0, 0.05, 0.1, 0.2, 0.4]
        rows = bench.sweep_noise(spec, sigmas)
        text = bench.noise_csv(rows)
    elif args.axis == "sparsity":
        fractions = [float(x) for x in args.values.split(",")] if args.values else [0.0, 0.3, 0.6, 0.9]
        rows = bench.sweep_sparsity(spec, fractions)
        text = bench.axis_csv("mask_fraction", rows)
    elif args.axis == "topk":
        ks = [int(x) for x in args.values.split(",")] if args.values else [4, 8, 16, 32]
        rows = bench.sweep_topk(spec, ks, train_instances=args.train_instances,
                                epochs=args.epochs)
        text = bench.axis_csv("k", rows)
    else:  # perm
        rows = bench.sweep_permutation(spec, num_perms=args.num_perms)
        text = bench.permutation_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_report(args) -> int:
    records = bench.read_records(args.records)
    if args.kind == "summary":
        text = bench.summary_csv(bench.summarize(records))
    else:
        text = bench.breakdown_csv(bench.breakdown_table(records))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualseed",
        description="Exact assignment solving with learned dual warm starts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate matrices or labeled datasets")
    p.add_argument("kind", choices=("matrix", "dataset"))
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1, help="instances (dataset only)")
    p.add_argument("--generator", choices=datagen.GENERATORS, default="dense")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask-fraction", dest="mask_fraction", type=float, default=0.0)
    p.add_argument("--block-groups", dest="block_groups", type=int, default=None)
    p.add_argument("--block-noise", dest="block_noise", type=float, default=None)
    p.add_argument("--center-sweeps", dest="center_sweeps", type=int, default=3,
                   help="label-centering sweeps (dataset only)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the row-potential model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="write per-epoch JSONL log here")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=1e-4)
    p.add_argument("--lambda-cs", dest="lambda_cs", type=float, default=0.1)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--val-fraction", dest="val_fraction", type=float, default=0.1)
    p.add_argument("--activation", choices=rowdualnet.ACTIVATIONS, default="relu")
    p.add_argument("--refine-k", dest="refine_k", type=int, default=rowdualnet.DEFAULT_REFINE_K,
                   help="refinement width K")
    p.add_argument("--augment-transpose", dest="augment_transpose", action="store_true",
                   help="double the dataset with transposed copies")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("solve", help="solve one matrix with one strategy")
    p.add_argument("matrix", help="binary matrix file or .csv")
    p.add_argument("--strategy", default="cold", choices=bench.ALL_STRATEGIES)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the assignment here")
    p.add_argument("--eps", type=float, default=PipelineConfig.eps,
                   help="equality-density tolerance")
    p.add_argument("--tau", type=float, default=PipelineConfig.tau,
                   help="fallback density threshold")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run a benchmark grid from a config file")
    p.add_argument("config", help="key=value spec file")
    p.add_argument("--records", default=None, help="write JSONL records here")
    p.add_argument("--summary", default=None, help="write summary CSV here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="sensitivity sweeps")
    p.add_argument("axis", choices=("noise", "sparsity", "topk", "perm"))
    p.add_argument("config", help="key=value spec file")
    p.add_argument("--values", default=None, help="comma-separated axis values")
    p.add_argument("--num-perms", dest="num_perms", type=int, default=10)
    p.add_argument("--train-instances", dest="train_instances", type=int, default=50)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="summaries from saved records")
    p.add_argument("kind", choices=("summary", "breakdown"))
    p.add_argument("records", help="JSONL records file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DualseedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
