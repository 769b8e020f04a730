"""Command-line surface: prepare | train | eval | gradcheck | inspect.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Flags override config-file values; SKEWREC_OUTPUT_ROOT prefixes relative
output directories.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import corpus, evaluation, model, training
from .config import RunConfig, TrainConfig, load_config
from .errors import DataError, NumericalError, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _out_path(path: str) -> str:
    root = os.environ.get("SKEWREC_OUTPUT_ROOT", "")
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def build_parser() -> _Parser:
    p = _Parser(prog="skewrec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    prep = sub.add_parser("prepare", help="ingest a raw 'user item' lines file")
    prep.add_argument("--input", required=True)
    prep.add_argument("--out-dir", required=True)
    prep.add_argument("--max-len", type=int, default=50)

    def add_config_flags(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--data-dir")
        sp.add_argument("--out-dir")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--kernel", help="active kernels, e.g. C, I+U, C+I+U")
        sp.add_argument("--item-variant", choices=["linear", "rbf"])
        sp.add_argument("--baseline", action="store_true",
                        help="deterministic location-only ablation")
        sp.add_argument("--eval-mode", choices=["location", "mean_shift", "stochastic"])
        sp.add_argument("--max-epochs", type=int)
        sp.add_argument("--batch-size", type=int)
        sp.add_argument("--dim", type=int)
        sp.add_argument("--blocks", type=int)
        sp.add_argument("--dropout", type=float)
        sp.add_argument("--lr", type=float)
        sp.add_argument("--lambda-r", type=float)
        sp.add_argument("--patience", type=int)
        sp.add_argument("--eval-every", type=int)

    tr = sub.add_parser("train", help="train a model on a prepared dataset")
    add_config_flags(tr)

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data-dir", required=True)
    ev.add_argument("--split", choices=["valid", "test"], default="test")
    ev.add_argument("--seeds", default="0", help="comma-separated evaluation seeds")
    ev.add_argument("--eval-mode", choices=["location", "mean_shift", "stochastic"])
    ev.add_argument("--full-catalog", action="store_true")
    ev.add_argument("--out-dir")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient check")
    gc.add_argument("--out", help="write the JSON report here")

    ins = sub.add_parser("inspect", help="export qualitative CSV artifacts")
    ins.add_argument("--checkpoint", required=True)
    ins.add_argument("--data-dir", required=True)
    ins.add_argument("--out-dir", required=True)
    group = ins.add_mutually_exclusive_group(required=True)
    group.add_argument("--user-id", type=int, help="original user id")
    group.add_argument("--items", help="comma-separated original item ids "
                                       "(synthetic sequence)")
    return p


def _merged_config(args) -> RunConfig:
    run = load_config(args.config) if args.config else RunConfig()
    cfg = run.train.to_dict()
    overrides = {
        "seed": args.seed, "kernel_active": args.kernel,
        "kernel_item_variant": args.item_variant,
        "eval_mode": args.eval_mode, "max_epochs": args.max_epochs,
        "batch_size": args.batch_size, "dim": args.dim, "blocks": args.blocks,
        "dropout": args.dropout, "lr": args.lr, "lambda_r": getattr(args, "lambda_r", None),
        "patience": args.patience, "eval_every": args.eval_every,
    }
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    if args.baseline:
        cfg["baseline"] = True
    run.train = TrainConfig(**cfg)
    if args.data_dir:
        run.data_dir = args.data_dir
    if args.out_dir:
        run.out_dir = args.out_dir
    return run


def _load_prepared(data_dir: str):
    split = corpus.load_dataset(os.path.join(data_dir, "dataset.json"))
    cooc = corpus.load_cooc(os.path.join(data_dir, "cooc.npz"))
    return split, cooc


def cmd_prepare(args) -> int:
    out_dir = _out_path(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    log = corpus.load_interactions(args.input)
    seqs, dropped = corpus.build_sequences(log, args.max_len)
    split = corpus.split_leave_one_out(seqs, log.n_items, args.max_len,
                                       log.item_ids, dropped)
    cooc = corpus.build_cooc(split)
    corpus.save_dataset(split, os.path.join(out_dir, "dataset.json"))
    corpus.save_cooc(cooc, os.path.join(out_dir, "cooc.npz"))
    actions = sum(len(split.full_sequence(u)) for u in range(split.n_users))
    print(f"users          {split.n_users:>12,}")
    print(f"items          {split.n_items:>12,}")
    print(f"actions        {actions:>12,}")
    print(f"avg act/user   {actions / split.n_users:>12.1f}")
    print(f"avg act/item   {actions / split.n_items:>12.1f}")
    print(f"dropped users  {dropped:>12,}")
    print(f"wrote {out_dir}/dataset.json and {out_dir}/cooc.npz")
    return 0


def cmd_train(args) -> int:
    run = _merged_config(args)
    if not run.data_dir:
        raise UsageError("train requires --data-dir (or data_dir in the config)")
    out_dir = _out_path(run.out_dir or "run")
    os.makedirs(out_dir, exist_ok=True)
    split, cooc = _load_prepared(run.data_dir)
    cfg = run.train

    def progress(entry):
        print(f"epoch {entry['epoch']:>4}  val hit@10 {entry['val_hit10']:.4f}  "
              f"ndcg@10 {entry['val_ndcg10']:.4f}  lr {entry['lr']:.2e}")

    result = training.train(cfg, split, cooc,
                            log_path=os.path.join(out_dir, "train_log.jsonl"),
                            progress=progress)
    training.save_checkpoint(result.checkpoint, os.path.join(out_dir, "checkpoint.npz"))
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2)
    print(f"best epoch {result.checkpoint.epoch}  "
          f"val hit@10 {result.checkpoint.best_metric:.4f}")
    print(f"wrote {out_dir}/checkpoint.npz")
    return 0


def _load_checkpoint_and_data(args):
    ckpt = training.load_checkpoint(args.checkpoint)
    split, cooc = _load_prepared(args.data_dir)
    training.check_compatible(ckpt, split)
    return ckpt, split, cooc


def cmd_eval(args) -> int:
    ckpt, split, cooc = _load_checkpoint_and_data(args)
    cfg = ckpt.config
    if args.eval_mode:
        cfg.eval_mode = args.eval_mode
    if args.full_catalog:
        cfg.full_catalog_eval = True
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise UsageError("--seeds needs at least one integer")
    records = []
    per_seed_hit10 = []
    out_dir = _out_path(args.out_dir) if args.out_dir else None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for seed in seeds:
        metrics = evaluation.evaluate(ckpt.params, cfg, split, cooc, args.split,
                                      seed=seed)
        payload = evaluation.metrics_payload(metrics, args.data_dir, cfg.eval_mode, seed)
        records.append(payload)
        per_seed_hit10.append(metrics.hit[10])
        print(json.dumps(payload))
        if out_dir:
            ranks_path = os.path.join(out_dir, f"ranks_{args.split}_seed{seed}.csv")
            with open(ranks_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["user", "rank"])
                for u, r in enumerate(metrics.per_user_ranks):
                    writer.writerow([u, int(r)])
    agg = {
        "aggregate": True,
        "split": args.split,
        "seeds": seeds,
        "hit10_mean": float(np.mean(per_seed_hit10)),
        "hit10_sd": float(np.std(per_seed_hit10, ddof=1)) if len(seeds) > 1 else 0.0,
    }
    print(json.dumps(agg))
    if out_dir:
        with open(os.path.join(out_dir, f"metrics_{args.split}.json"), "w") as fh:
            json.dump({"per_seed": records, "aggregate": agg}, fh, indent=2)
    return 0


def cmd_gradcheck(args) -> int:
    report = training.grad_check()
    for group, err in sorted(report["groups"].items()):
        print(f"{group:<16} max rel err {err:.3e}")
    print(f"overall max rel err {report['max_rel_err']:.3e} "
          f"({report['worst_tensor']}), tolerance {report['tolerance']:.0e}")
    if args.out:
        with open(_out_path(args.out), "w") as fh:
            json.dump(report, fh, indent=2)
    if not report["passed"]:
        raise NumericalError("gradient check failed")
    print("gradient check passed")
    return 0


def _write_matrix_csv(path, matrix, header=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in np.atleast_2d(matrix):
            writer.writerow([f"{v:.6g}" for v in row])


def cmd_inspect(args) -> int:
    ckpt, split, cooc = _load_checkpoint_and_data(args)
    cfg = ckpt.config
    out_dir = _out_path(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)

    if args.items is not None:
        item_index = {orig: d + 1 for d, orig in enumerate(split.item_ids)}
        seq = []
        for tok in args.items.split(","):
            orig = int(tok)
            if orig not in item_index:
                raise DataError(f"unknown item id {orig}")
            seq.append(item_index[orig])
        if len(seq) < 2:
            raise UsageError("synthetic sequences need at least 2 items")
        active = tuple(k for k in cfg.active_kernels() if k != "U")
        if not active:
            raise UsageError("synthetic sequences have no user; enable C or I kernels")
        cfg.kernel_active = "+".join(active)
        user_row = 0
    else:
        user_index = {orig: d for d, orig in enumerate(split.user_ids)}
        if args.user_id not in user_index:
            raise DataError(f"unknown user id {args.user_id}")
        user_row = user_index[args.user_id]
        seq, _ = split.eval_row(user_row, "test")
        seq = seq[-cfg.max_len:]

    L = cfg.max_len
    m = len(seq)
    item_ids = np.zeros((1, L), dtype=np.int64)
    item_ids[0, L - m:] = seq
    batch = corpus.Batch(item_ids=item_ids, targets=np.zeros_like(item_ids),
                         negatives=np.zeros((1, L, 1), dtype=np.int64),
                         user_ids=np.array([user_row]), pad_mask=item_ids != 0)
    feat = model.Featurizer(cooc, L)
    feats = feat.batch_features(batch, None)
    _, trace = model.collect_trace(ckpt.params, cfg, batch, feats, mode="location")

    # co-occurrence indicator between the query (last) item and each position
    cooc_row = feats.cooc_win[0, L - m:L - 1]
    indicator = (cooc_row > cooc_row.mean()).astype(int) if m > 1 else np.array([])
    for bi, heads in enumerate(trace):
        for h, t in enumerate(heads):
            tag = f"block{bi}_head{h}"
            _write_matrix_csv(os.path.join(out_dir, f"correlation_{tag}.csv"), t["psi"])
            attn_last = t["attn"][-1]
            rows = np.vstack([np.append(indicator, 0), attn_last])
            _write_matrix_csv(os.path.join(out_dir, f"attention_{tag}.csv"), rows)
            _write_matrix_csv(os.path.join(out_dir, f"location_{tag}.csv"), t["xi"])

    # dataset-level mean mixture weights per block/head
    _export_mixture(ckpt, split, out_dir)
    _write_matrix_csv(os.path.join(out_dir, "item_embeddings.csv"),
                      ckpt.params.item_emb[1:])
    _export_frequency_ranks(ckpt, cfg, split, cooc, out_dir)
    print(f"wrote inspection artifacts to {out_dir}")
    return 0


def _export_mixture(ckpt, split, out_dir) -> None:
    from . import kernels

    cfg = ckpt.config
    active = cfg.active_kernels()
    users = np.arange(split.n_users)
    rows = []
    for bi, blk in enumerate(ckpt.params.blocks):
        for h, hp in enumerate(blk.heads):
            r = kernels.mixture(ckpt.params.user_emb[users], hp.w_mix, hp.b_mix, active)
            rows.append([f"block{bi}_head{h}"] + [f"{v:.6g}" for v in r.mean(axis=0)])
    with open(os.path.join(out_dir, "kernel_mixture.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block_head"] + list(active))
        writer.writerows(rows)


def _export_frequency_ranks(ckpt, cfg, split, cooc, out_dir) -> None:
    metrics = evaluation.evaluate(ckpt.params, cfg, split, cooc, "test",
                                  seed=cfg.seed)
    with open(os.path.join(out_dir, "frequency_ranks.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["occurrence_decile", "mean_rank"])
        for bucket, mean_rank in sorted(metrics.frequency_buckets.items()):
            writer.writerow([bucket, f"{mean_rank:.4f}"])


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "prepare": cmd_prepare, "train": cmd_train, "eval": cmd_eval,
            "gradcheck": cmd_gradcheck, "inspect": cmd_inspect,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
