"""The three workloads, driven through the same public calls that
`skewrec prepare`, `train` and `eval` make, plus their correctness checks.

Every workload uses the README defaults (B=128, d=64, 2 blocks, 1 head,
dropout 0.5, C+I+U with the linear item kernel, float32, lambda_r 0.001, 1
training and 100 evaluation negatives) on the full 6,040 x 3,416 corpus. The
training passes and the evaluation cover a fixed slice of the users, so one
run fits in well under a minute; the co-occurrence statistics, the model's
tables and every per-sequence cost are those of the full corpus.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from skewrec import corpus, evaluation, model, training
from skewrec.config import TrainConfig
from skewrec.errors import SkewrecError

import corpus_gen
from metrics import PHASES

PASS_USERS = 1024         # train-*: users per pass, 8 batches of 128
SETUP_TRAIN_USERS = 256   # eval-cold: users the setup training passes over
EVAL_USERS = 256          # eval-cold: users ranked per evaluation
MIN_EVAL_SEEDS = 4
SETUP_REPEATS = 3
FIRST_COLD_STEPS = 4      # the loss check compares the warm pass with these
CHANCE_HIT10 = 10 / 101

WORKLOADS = {
    "train-stoch": "full stochastic model: kernels, Cholesky, skew-normal and "
                   "ListMLE dominate a warm step",
    "train-base": "deterministic baseline on the same corpus: batch building, "
                  "featurizing and Adam carry the most weight",
    "eval-cold": "evaluation read path: a fresh featurizer per seed, then the "
                 "same seed again from the filled cache",
}

# Time of `reference_seconds()` on the 2-core machine the benchmark was tuned
# on. Each unit of work's time is scaled by REFERENCE_S over the mean
# reference time measured just before and just after it, so a shared host
# that slows everything for a few seconds does not read as a change in the
# program.
REFERENCE_S = 0.0035
_REF = np.random.default_rng(20191115)
_REF_X = _REF.standard_normal((32, 50, 64)).astype(np.float32)
_REF_W = _REF.standard_normal((64, 64)).astype(np.float32)
_REF_JITTER = 64.0 * np.eye(50)
_REF_ROWS = [_REF.standard_normal(50) for _ in range(100)]


def _reference_kernel() -> None:
    x = _REF_X @ _REF_W
    gram = (x @ np.swapaxes(x, -1, -2)).astype(np.float64)
    np.linalg.cholesky(gram @ np.swapaxes(gram, -1, -2) + _REF_JITTER)
    for row in _REF_ROWS:
        m = row.copy()
        m[::7] = row.mean()
        float(m @ row)


def reference_seconds() -> float:
    """Wall time of a fixed miniature of one step's mix: batched float32
    products, a batched Cholesky and a Python loop of small numpy calls.
    A first untimed run refills the caches the program's work evicted, so
    the timing reflects the machine's speed rather than what ran before."""
    _reference_kernel()
    start = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - start


def train_config(workload: str, seed: int) -> TrainConfig:
    return TrainConfig(seed=seed, baseline=workload == "train-base")


def eval_seeds(seed: int, count: int) -> list[int]:
    return [seed * 1000 + k for k in range(count)]


def prepare(path: str):
    """What `skewrec prepare` does, without writing the artifacts."""
    log = corpus.load_interactions(path)
    seqs, dropped = corpus.build_sequences(log, corpus_gen.MAX_LEN)
    split = corpus.split_leave_one_out(seqs, log.n_items, corpus_gen.MAX_LEN,
                                       log.item_ids, dropped)
    return log, split, corpus.build_cooc(split)


def first_users(split: corpus.SplitDataset, n: int) -> corpus.SplitDataset:
    """The first n users; user index u stays u, so the model's user table is
    the full corpus's."""
    return corpus.SplitDataset(split.train[:n], split.valid_target[:n],
                               split.test_target[:n], split.user_ids[:n],
                               split.n_items, split.max_len, split.item_ids)


class Trainer:
    """Model, optimizer and generators seeded as `training.train` seeds them."""

    def __init__(self, cfg: TrainConfig, split: corpus.SplitDataset,
                 cooc: corpus.CoocStats):
        self.cfg = cfg
        self.cooc = cooc
        self.rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        self.noise_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
        self.drop_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
        self.params = model.init_params(cfg, split.n_items, split.n_users, self.rng)
        self.opt = training.Adam(self.params, cfg.lr)


@dataclass
class PassResult:
    step_s: list = field(default_factory=list)   # batch build through Adam
    ref_s: list = field(default_factory=list)    # mean reference time around each step
    seqs: list = field(default_factory=list)     # sequences per step
    losses: list = field(default_factory=list)
    error: str | None = None


def train_pass(tr: Trainer, split, feat: model.Featurizer, next_batch=next,
               deadline=None) -> PassResult:
    """One epoch over `split`: the loop body of `training.train`. Stops early
    once `deadline` (a perf_counter time) has passed."""
    cfg = tr.cfg
    batches = corpus.make_batches(split, cfg.batch_size, cfg.max_len,
                                  cfg.k_neg_train, tr.rng)
    res = PassResult()
    refs = [reference_seconds()]  # before the first step and after every step
    while True:
        t0 = time.perf_counter()
        batch = next_batch(batches, None)
        if batch is None:
            break
        feats = feat.batch_features(batch, "train")
        try:
            report, grads = model.training_step_loss(
                tr.params, cfg, batch, feats, rng=tr.noise_rng, drop_rng=tr.drop_rng)
        except (ValueError, SkewrecError) as exc:
            res.losses.append(float("nan"))
            res.error = f"step {len(res.losses)}: {exc}"
            break
        res.losses.append(report.total)
        if not np.isfinite(report.total):
            res.error = f"step {len(res.losses)}: non-finite loss {report.total}"
            break
        grads.item_emb[0] = 0.0
        training.clip_global_norm(grads, cfg.grad_clip)
        tr.opt.step(tr.params, grads)
        tr.params.item_emb[0] = 0.0
        res.step_s.append(time.perf_counter() - t0)
        res.seqs.append(batch.item_ids.shape[0])
        refs.append(reference_seconds())
        if deadline is not None and time.perf_counter() >= deadline:
            break
    res.ref_s = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    return res


def train_cycle(tr: Trainer, split, tracer=None, deadline=None):
    """A cold pass with a fresh featurizer, then a warm pass over the same
    users; both stop early once `deadline` has passed.
    Returns ({phase: PassResult}, featurizer)."""
    feat = model.Featurizer(tr.cooc, tr.cfg.max_len)
    next_batch = tracer.wrap("corpus.make_batches", next) if tracer else next
    out = {}
    for phase in PHASES:
        if tracer:
            tracer.run = phase
        out[phase] = train_pass(tr, split, feat, next_batch, deadline)
        if out[phase].error or (deadline is not None and time.perf_counter() >= deadline):
            break
    return out, feat


@dataclass
class EvalResult:
    wall_s: float
    ref_s: float
    hit10: float
    ranks: np.ndarray
    n_users: int


def evaluate_seed(params, cfg, split, cooc, seed, tracer=None) -> dict:
    """`skewrec eval` for one seed (fresh featurizer), then the same seed
    again from the filled cache, as validation inside `training.train` does."""
    feat = model.Featurizer(cooc, cfg.max_len)
    out = {}
    for phase in PHASES:
        if tracer:
            tracer.run = phase
        ref = reference_seconds()
        start = time.perf_counter()
        m = evaluation.evaluate(params, cfg, split, cooc, "test", seed=seed,
                                featurizer=feat)
        wall = time.perf_counter() - start
        ref = (ref + reference_seconds()) / 2  # bracketed, as training steps are
        out[phase] = EvalResult(wall, ref, m.hit[10], m.per_user_ranks, m.n_users)
    return out


# ---------------------------------------------------------------------------
# correctness checks: each returns a list of failure messages
# ---------------------------------------------------------------------------

def check_training(cycle: dict) -> tuple[int, list[str]]:
    """(failed steps, run-level failures) for one train cycle."""
    failed_steps = 0
    failures = []
    for phase, res in cycle.items():
        bad = [i + 1 for i, v in enumerate(res.losses) if not np.isfinite(v)]
        failed_steps += len(bad)
        if res.error:
            failures.append(f"{phase} pass stopped: {res.error}")
        elif bad:
            failures.append(f"{phase} pass: non-finite loss at steps {bad}")
    if not failures and "warm" in cycle:
        cold = np.mean(cycle["cold"].losses[:FIRST_COLD_STEPS])
        warm = np.mean(cycle["warm"].losses)
        if not warm < cold:
            failures.append(f"mean warm-pass loss {warm} is not below the mean "
                            f"{cold} of the first {FIRST_COLD_STEPS} cold steps")
    return failed_steps, failures


def check_eval(results: dict, split) -> tuple[int, list[str]]:
    """(failed users, run-level failures) for {seed: {phase: EvalResult}}."""
    expected_users = sum(1 for t in split.train if len(t) >= 1)
    failed_users = 0
    failures = []
    for seed, phases in results.items():
        for phase, res in phases.items():
            bad = int(np.sum((res.ranks < 1) | (res.ranks > 101)))
            failed_users += bad
            if bad:
                failures.append(f"seed {seed} {phase}: {bad} ranks outside [1, 101]")
            if res.n_users != expected_users:
                failures.append(f"seed {seed} {phase}: evaluated {res.n_users} users, "
                                f"expected {expected_users}")
        if not np.array_equal(phases["cold"].ranks, phases["warm"].ranks):
            failures.append(f"seed {seed}: ranks from the filled featurizer cache "
                            f"differ from the cold ranks")
    hit10 = float(np.mean([p["cold"].hit10 for p in results.values()]))
    if not hit10 > CHANCE_HIT10:
        failures.append(f"test hit@10 {hit10} is not above chance {CHANCE_HIT10}")
    return failed_users, failures


def check_identical(untraced, traced, what: str) -> list[str]:
    if len(untraced) != len(traced) or any(
            not np.array_equal(a, b) for a, b in zip(untraced, traced)):
        return [f"traced and untraced runs give different {what}"]
    return []
