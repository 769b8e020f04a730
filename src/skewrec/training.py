"""Optimization loop: Adam updates with global-norm clipping, periodic
validation with learning-rate decay and early stopping, versioned
checkpointing, and a finite-difference gradient checker for the whole model.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import evaluation, model
from .config import TrainConfig
from .corpus import Batch, CoocStats, SplitDataset, make_batches
from .errors import DataError, NumericalError

CHECKPOINT_FORMAT_VERSION = 2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    def __init__(self, params: model.ModelParams, lr: float):
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in model.named_tensors(params)}
        self.v = {name: np.zeros_like(arr) for name, arr in model.named_tensors(params)}

    def step(self, params: model.ModelParams, grads: model.ModelParams):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        gview = dict(model.named_tensors(grads))
        for name, arr in model.named_tensors(params):
            g = gview[name]
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            arr -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def clip_global_norm(grads: model.ModelParams, max_norm: float) -> float:
    total = 0.0
    for _, arr in model.named_tensors(grads):
        total += float(np.sum(arr.astype(np.float64) ** 2))
    norm = np.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for _, arr in model.named_tensors(grads):
            arr *= scale
    return norm


@dataclass
class Checkpoint:
    params: model.ModelParams
    config: TrainConfig
    epoch: int
    best_metric: float = 0.0


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    arrays = {f"param::{n}": a for n, a in model.named_tensors(ckpt.params)}
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": ckpt.config.to_dict(),
        "epoch": ckpt.epoch,
        "best_metric": ckpt.best_metric,
        "n_items": ckpt.params.item_emb.shape[0] - 1,
        "n_users": ckpt.params.user_emb.shape[0],
    }
    np.savez_compressed(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                        **arrays)


def load_checkpoint(path: str) -> Checkpoint:
    import zipfile

    try:
        blob = np.load(path)
        with blob:
            if "meta" not in blob.files:
                raise DataError(f"checkpoint {path}: missing metadata record")
            meta = json.loads(bytes(blob["meta"]).decode())
            version = meta.get("format_version")
            if version != CHECKPOINT_FORMAT_VERSION:
                raise DataError(
                    f"checkpoint {path}: format version {version} is not "
                    f"{CHECKPOINT_FORMAT_VERSION}")
            cfg = TrainConfig(**meta["config"])
            params = model.init_params(cfg, meta["n_items"], meta["n_users"],
                                       np.random.default_rng(0))
            for name, arr in model.named_tensors(params):
                arr[...] = blob[f"param::{name}"]
    except (OSError, ValueError, KeyError, zipfile.BadZipFile,
            json.JSONDecodeError) as exc:
        raise DataError(f"cannot load checkpoint {path}: {exc}") from exc
    return Checkpoint(params=params, config=cfg, epoch=meta["epoch"],
                      best_metric=meta.get("best_metric", 0.0))


def check_compatible(ckpt: Checkpoint, split: SplitDataset) -> None:
    """Refuse to apply a checkpoint to a dataset whose item catalog or user
    count differs from the one it was trained on: ids would index past its
    embedding tables, or score against rows that belong to other items."""
    trained = (ckpt.params.item_emb.shape[0] - 1, ckpt.params.user_emb.shape[0])
    given = (split.n_items, split.n_users)
    if trained != given:
        raise DataError(
            f"checkpoint was trained on {trained[0]} items x {trained[1]} users, "
            f"but the dataset has {given[0]} items x {given[1]} users")


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log: list = field(default_factory=list)


def train(cfg: TrainConfig, split: SplitDataset, cooc: CoocStats,
          log_path: str | None = None, progress=None) -> TrainResult:
    """Run the optimization loop; returns the best-validation checkpoint.

    Deterministic given cfg.seed: batch order, negatives, reparameterization
    noise, dropout, and evaluation negatives all flow from seeded generators.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    noise_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    drop_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    params = model.init_params(cfg, split.n_items, split.n_users, rng)
    feat = model.Featurizer(cooc, cfg.max_len)
    opt = Adam(params, cfg.lr)
    log: list[dict] = []
    log_fh = open(log_path, "w") if log_path else None

    best = -1.0
    best_params = None
    best_epoch = 0
    stalls = 0
    step = 0
    try:
        for epoch in range(1, cfg.max_epochs + 1):
            for batch in make_batches(split, cfg.batch_size, cfg.max_len,
                                      cfg.k_neg_train, rng):
                feats = feat.batch_features(batch, "train")
                try:
                    report, grads = model.training_step_loss(
                        params, cfg, batch, feats, rng=noise_rng, drop_rng=drop_rng)
                except NumericalError as exc:
                    _dump_bad_batch(batch, log_path)
                    raise NumericalError(f"epoch {epoch} step {step + 1}: {exc}") from exc
                grads.item_emb[0] = 0.0
                clip_global_norm(grads, cfg.grad_clip)
                opt.step(params, grads)
                params.item_emb[0] = 0.0
                step += 1
                entry = {"epoch": epoch, "step": step, "l_z": report.l_z,
                         "l_rank": report.l_rank, "total": report.total,
                         "lr": opt.lr}
                log.append(entry)
                if log_fh:
                    log_fh.write(json.dumps(entry) + "\n")
            if epoch % cfg.eval_every == 0 or epoch == cfg.max_epochs:
                metrics = evaluation.evaluate(params, cfg, split, cooc, "valid",
                                              seed=cfg.seed, featurizer=feat)
                hit10 = metrics.hit[10]
                entry = {"epoch": epoch, "step": step, "val_hit10": hit10,
                         "val_ndcg10": metrics.ndcg[10], "lr": opt.lr}
                log.append(entry)
                if log_fh:
                    log_fh.write(json.dumps(entry) + "\n")
                    log_fh.flush()
                if progress:
                    progress(entry)
                if hit10 > best + 1e-12:
                    best = hit10
                    best_params = copy.deepcopy(params)
                    best_epoch = epoch
                    stalls = 0
                else:
                    stalls += 1
                    if stalls > cfg.patience:
                        break
                    opt.lr *= cfg.lr_decay_factor
    finally:
        if log_fh:
            log_fh.close()
    if best_params is None:
        best_params = params
        best_epoch = cfg.max_epochs
    ckpt = Checkpoint(params=best_params, config=cfg, epoch=best_epoch,
                      best_metric=best)
    return TrainResult(checkpoint=ckpt, log=log)


def _dump_bad_batch(batch: Batch, log_path: str | None) -> None:
    target = (os.path.dirname(log_path) if log_path else ".") or "."
    path = os.path.join(target, "bad_batch.npz")
    try:
        np.savez(path, item_ids=batch.item_ids, targets=batch.targets,
                 negatives=batch.negatives, user_ids=batch.user_ids)
    except OSError:
        pass


def training_hit_at_1(params: model.ModelParams, cfg: TrainConfig,
                      split: SplitDataset, cooc: CoocStats) -> float:
    """Fraction of training positions whose true next item ranks first over
    the full catalog (deterministic location forward)."""
    feat = model.Featurizer(cooc, cfg.max_len)
    rng = np.random.default_rng(0)
    hits = []
    for batch in make_batches(split, cfg.batch_size, cfg.max_len, 1, rng):
        feats = feat.batch_features(batch, "train")
        f, _ = model.forward(params, cfg, batch, feats, "location")
        scores = f @ params.item_emb[1:].T  # [B, L, n_items]
        pred = scores.argmax(axis=-1) + 1
        valid = batch.targets != 0
        hits.append((pred == batch.targets)[valid])
    return float(np.concatenate(hits).mean())


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

GRADCHECK_GROUPS = {
    "item_emb": "embeddings", "pos_emb": "embeddings", "user_emb": "embeddings",
    "wq_loc": "location head", "wk_loc": "location head",
    "wq_om": "scale head", "wk_om": "scale head",
    "wq_sh": "shape head", "wk_sh": "shape head",
    "wv": "attention value", "w_out": "attention value",
    "w_user_mod": "kernel mixture", "w_mix": "kernel mixture", "b_mix": "kernel mixture",
    "ffn_w1": "ffn", "ffn_b1": "ffn", "ffn_w2": "ffn", "ffn_b2": "ffn",
    "ln1_g": "norms", "ln1_b": "norms", "ln2_g": "norms", "ln2_b": "norms",
}


def gradcheck_config() -> TrainConfig:
    return TrainConfig(batch_size=1, dim=8, blocks=1, heads=1, dropout=0.0,
                       lr=0.001, lambda_r=0.1, max_len=5, k_neg_train=1,
                       max_epochs=1, seed=7, dtype="float64")


def _gradcheck_fixture(cfg: TrainConfig, rng: np.random.Generator):
    """Tiny deterministic instance touching every parameter tensor."""
    from . import corpus

    train_lists = [[1, 2, 3, 4, 5, 6], [1, 2, 3], [2, 3, 4], [4, 5, 6, 1]]
    split = SplitDataset(train=train_lists, valid_target=[1, 1, 1, 1],
                         test_target=[2, 2, 2, 2], user_ids=[0, 1, 2, 3],
                         n_items=6, max_len=cfg.max_len,
                         item_ids=list(range(1, 7)))
    cooc = corpus.build_cooc(split)
    batch = Batch(
        item_ids=np.array([[1, 2, 3, 4, 5]]),
        targets=np.array([[2, 3, 4, 5, 6]]),
        negatives=np.array([[[6], [6], [6], [6], [1]]]),
        user_ids=np.array([0]),
        pad_mask=np.ones((1, 5), dtype=bool))
    feat = model.Featurizer(cooc, cfg.max_len)
    feats = feat.batch_features(batch, None)
    params = model.init_params(cfg, 6, 4, rng)
    noise = model.make_noise(cfg, 1, np.random.default_rng(123))
    return params, batch, feats, noise


def grad_check(cfg: TrainConfig | None = None, rng: np.random.Generator | None = None,
               step: float = 1e-5, corrupt: str | None = None) -> dict:
    """Compare analytic gradients to central finite differences.

    Runs the full training loss (prediction + ranking) on a tiny float64
    model with frozen reparameterization noise. Returns a report with the
    max relative error per tensor, the worst offender, and per-group
    coverage. `corrupt` perturbs one analytic gradient tensor to verify the
    harness actually detects mismatches.
    """
    cfg = cfg or gradcheck_config()
    if cfg.dtype != "float64":
        raise ValueError("gradient checking requires a float64 config")
    rng = rng or np.random.default_rng(2024)
    params, batch, feats, noise = _gradcheck_fixture(cfg, rng)

    def loss_value() -> float:
        report, _ = model.training_step_loss(params, cfg, batch, feats, noise=noise,
                                             want_grads=False)
        return report.total

    _, grads = model.training_step_loss(params, cfg, batch, feats, noise=noise)
    gview = dict(model.named_tensors(grads))
    if corrupt is not None:
        gview[corrupt] += 1e-2

    tensors = {}
    worst = ("", 0.0)
    for name, arr in model.named_tensors(params):
        g_an = gview[name]
        g_fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            if name == "item_emb" and idx[0] == 0:
                it.iternext()
                continue  # padding row is projected, not free
            orig = arr[idx]
            arr[idx] = orig + step
            up = loss_value()
            arr[idx] = orig - step
            down = loss_value()
            arr[idx] = orig
            g_fd[idx] = (up - down) / (2.0 * step)
            it.iternext()
        denom = np.maximum(np.maximum(np.abs(g_an), np.abs(g_fd)), 1e-6)
        rel = np.abs(g_an - g_fd) / denom
        if name == "item_emb":
            rel[0] = 0.0
        err = float(rel.max())
        tensors[name] = err
        if err > worst[1]:
            worst = (name, err)
    groups = {}
    for name, err in tensors.items():
        leaf = name.split(".")[-1]
        group = GRADCHECK_GROUPS.get(leaf, leaf)
        groups[group] = max(groups.get(group, 0.0), err)
    return {"tensors": tensors, "groups": groups, "max_rel_err": worst[1],
            "worst_tensor": worst[0], "passed": worst[1] < 1e-4, "tolerance": 1e-4}
