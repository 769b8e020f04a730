"""One benchmark run: generate the corpus, set up, measure, check, report."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time

import numpy as np
import scipy

from skewrec import corpus, model
from skewrec.config import TrainConfig

import corpus_gen
import metrics
import tracing
import workloads as wl
from metrics import PHASES


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_name() -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        return "unknown"


def environment(root, workload, seed, threads, cfg: TrainConfig) -> dict:
    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(),
        "thread_env": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "train_config": cfg.to_dict(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Setup:
    """Prepare plus model and optimizer init; for eval-cold also the short
    training that makes the evaluated parameters."""

    def __init__(self, workload: str, seed: int, corpus_path: str):
        start = time.perf_counter()
        self.log, self.split, self.cooc = wl.prepare(corpus_path)
        self.cfg = wl.train_config(workload, seed)
        self.trainer = wl.Trainer(self.cfg, self.split, self.cooc)
        self.training = None
        if workload == "eval-cold":
            self.training, _ = wl.train_cycle(
                self.trainer, wl.first_users(self.split, wl.SETUP_TRAIN_USERS))
        self.seconds = time.perf_counter() - start


def repeated_setup(workload: str, seed: int, corpus_path: str):
    """The last of SETUP_REPEATS setups, and the median setup time."""
    times = []
    s = None
    for _ in range(wl.SETUP_REPEATS):
        s = None  # free the previous setup before building the next
        s = Setup(workload, seed, corpus_path)
        times.append(s.seconds)
    return s, statistics.median(times)


def _median_rates(units) -> tuple[float, float]:
    """Sequences per second of the median unit of work, from (seqs, seconds,
    reference seconds) triples: (scaled to the reference machine, as timed)."""
    units = list(units)
    scaled = np.median([n * ref / (t * wl.REFERENCE_S) for n, t, ref in units])
    return float(scaled), float(np.median([n / t for n, t, _ in units]))


class Outcome:
    """What one run reports: checks, counts and metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict = {}
        self.extra: dict = {}

    def add_training(self, cycle: dict) -> None:
        failed_steps, failures = wl.check_training(cycle)
        self.attempted += sum(len(p.losses) for p in cycle.values())
        self.failed += failed_steps
        self.failures += failures

    def add_eval(self, results: dict, split) -> None:
        failed_users, failures = wl.check_eval(results, split)
        self.attempted += sum(r.n_users for p in results.values() for r in p.values())
        self.failed += failed_users
        self.failures += failures

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0


def measure(workload: str, seed: int, seconds: float, corpus_path: str,
            out: Outcome) -> None:
    """Untraced run: the end-to-end metrics."""
    s, setup_s = repeated_setup(workload, seed, corpus_path)
    out.extra["corpus"] = corpus_gen.summary(s.log, s.split, s.cooc)
    out.failures += corpus_gen.check_shape(out.extra["corpus"])
    if out.failures:
        return
    start = time.perf_counter()
    if workload.startswith("train-"):
        pass_split = wl.first_users(s.split, wl.PASS_USERS)
        cycles = []
        deadline = start + seconds
        while not cycles or (out.correct and time.perf_counter() < deadline):
            cycle, _ = wl.train_cycle(s.trainer, pass_split,
                                      deadline=deadline if cycles else None)
            cycles.append(cycle)
            out.add_training(cycle)
        if not out.correct:
            return
        out.extra["step_s"] = {p: [t for c in cycles if p in c for t in c[p].step_s]
                               for p in PHASES}
        out.extra["ref_s"] = {p: [t for c in cycles if p in c for t in c[p].ref_s]
                              for p in PHASES}
        loss = float(np.mean(cycles[0]["warm"].losses))
        rates = {p: _median_rates(u for c in cycles if p in c
                                  for u in zip(c[p].seqs, c[p].step_s, c[p].ref_s))
                 for p in PHASES}
    else:
        out.add_training(s.training)
        if not out.correct:
            return
        eval_split = wl.first_users(s.split, wl.EVAL_USERS)
        results = {}
        while len(results) < wl.MIN_EVAL_SEEDS or time.perf_counter() - start < seconds:
            ev_seed = wl.eval_seeds(seed, len(results) + 1)[-1]
            results[ev_seed] = wl.evaluate_seed(s.trainer.params, s.cfg, eval_split,
                                                s.cooc, ev_seed)
        out.add_eval(results, eval_split)
        out.extra["eval_seeds"] = list(results)
        out.extra["eval_s"] = {p: [r[p].wall_s for r in results.values()] for p in PHASES}
        out.extra["ref_s"] = {p: [r[p].ref_s for r in results.values()] for p in PHASES}
        out.extra["test_hit10"] = float(np.mean([r["cold"].hit10 for r in results.values()]))
        loss = float(np.mean(s.training["warm"].losses))
        rates = {p: _median_rates((r[p].n_users, r[p].wall_s, r[p].ref_s)
                                  for r in results.values())
                 for p in PHASES}
    out.metrics = {"setup_s": setup_s, "cold_pass_seqs_per_s": rates["cold"][0],
                   "warm_pass_seqs_per_s": rates["warm"][0], "warm_pass_loss": loss,
                   "peak_rss_mb": peak_rss_mb()}
    out.extra["as_timed"] = {f"{p}_pass_seqs_per_s": rates[p][1] for p in PHASES}


def step_ratio(params, split, feat, seed: int) -> float:
    """Median stochastic over median baseline `training_step_loss` time on
    the same warm batches and parameters: the price of the paper's idea."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    noise_rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    arms = {arm: wl.train_config(arm, seed) for arm in ("train-stoch", "train-base")}
    times = {arm: [] for arm in arms}
    cfg = arms["train-base"]
    for batch in corpus.make_batches(split, cfg.batch_size, cfg.max_len,
                                     cfg.k_neg_train, rng):
        feats = feat.batch_features(batch, "train")
        for arm, arm_cfg in arms.items():
            start = time.perf_counter()
            model.training_step_loss(params, arm_cfg, batch, feats, rng=noise_rng,
                                     drop_rng=noise_rng)
            times[arm].append(time.perf_counter() - start)
    return float(np.median(times["train-stoch"]) / np.median(times["train-base"]))


def trace(workload: str, seed: int, corpus_path: str, out: Outcome,
          span_path: str) -> None:
    """Traced run: an untraced and a traced pass of the same work from the
    same seed, then the per-layer metrics from the traced one."""
    tracer = tracing.Tracer()
    with tracer:
        s = Setup(workload, seed, corpus_path)
    out.extra["corpus"] = corpus_gen.summary(s.log, s.split, s.cooc)
    out.failures += corpus_gen.check_shape(out.extra["corpus"])
    if out.failures:
        return
    ratio = 0.0
    if workload.startswith("train-"):
        pass_split = wl.first_users(s.split, wl.PASS_USERS)
        untraced, feat = wl.train_cycle(s.trainer, pass_split)
        traced_tr = wl.Trainer(s.cfg, s.split, s.cooc)
        with tracer:
            traced, _ = wl.train_cycle(traced_tr, pass_split, tracer)
        for cycle in (untraced, traced):
            out.add_training(cycle)
        out.failures += wl.check_identical(
            [p.losses for p in untraced.values()], [p.losses for p in traced.values()],
            "per-step losses")
        if out.correct:
            ratio = step_ratio(s.trainer.params, pass_split, feat, seed)
        traced_units, untraced_units = (
            {p: list(zip(cyc[p].step_s, cyc[p].ref_s)) for p in cyc}
            for cyc in (traced, untraced))
    else:
        out.add_training(s.training)
        eval_split = wl.first_users(s.split, wl.EVAL_USERS)
        seeds = wl.eval_seeds(seed, wl.MIN_EVAL_SEEDS)
        params = s.trainer.params
        untraced = {sd: wl.evaluate_seed(params, s.cfg, eval_split, s.cooc, sd)
                    for sd in seeds}
        with tracer:
            traced = {sd: wl.evaluate_seed(params, s.cfg, eval_split, s.cooc, sd, tracer)
                      for sd in seeds}
        for results in (untraced, traced):
            out.add_eval(results, eval_split)
        out.failures += wl.check_identical(
            [r[p].ranks for r in untraced.values() for p in PHASES],
            [r[p].ranks for r in traced.values() for p in PHASES], "per-user ranks")
        traced_units, untraced_units = (
            {p: [(r[p].wall_s, r[p].ref_s) for r in res.values()] for p in PHASES}
            for res in (traced, untraced))
    out.metrics = metrics.setup_metrics(tracer)
    for phase in PHASES:
        wall = sum(t for t, _ in traced_units.get(phase, ()))
        out.metrics.update(metrics.phase_metrics(tracer, phase, wall))
    out.metrics["bench.stoch_over_base_step"] = ratio
    # both sides scaled by the reference kernel, as the end-to-end rates are
    scaled = [sum(t / ref for p in traced_units for t, ref in units.get(p, ()))
              for units in (traced_units, untraced_units)]
    out.metrics["bench.trace_overhead_frac"] = (
        scaled[0] / scaled[1] - 1.0 if scaled[1] > 0 else 0.0)
    tracer.write_spans(span_path)
    out.extra["module_table"] = tracing.module_table(
        [sp for sp in tracer.spans if sp[3] in PHASES])


def run(root: str, workload: str, seed: int, seconds: int, traced: bool,
        threads: dict) -> int:
    """Run one workload, print its report and result line; returns the exit code."""
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(traced)}")
    corpus_path = f"{stem}-pid{os.getpid()}.corpus.txt"
    env = environment(root, workload, seed, threads, wl.train_config(workload, seed))
    print(json.dumps({"environment": env}), flush=True)
    corpus_gen.write(seed, corpus_path)
    out = Outcome()
    try:
        if traced:
            trace(workload, seed, corpus_path, out, f"{stem}.spans.jsonl")
        else:
            measure(workload, seed, seconds, corpus_path, out)
    finally:
        os.remove(corpus_path)
    print(json.dumps({"corpus": out.extra.get("corpus")}))
    specs = metrics.PER_LAYER if traced else metrics.END_TO_END
    if out.correct:
        missing = set(specs) - set(out.metrics)
        out.failures += [f"metric {m} was not measured" for m in sorted(missing)]
    if "module_table" in out.extra:
        print(tracing.format_table(out.extra["module_table"]))
    for name, value in out.metrics.items():
        print(f"{name:<48} {value:>16.6f} {specs[name][0]}")
    for key in ("as_timed", "test_hit10", "eval_seeds"):
        if key in out.extra:
            print(f"{key:<48} {out.extra[key]}")
    print(f"{'ops_failed_frac':<48} "
          f"{out.failed / out.attempted if out.attempted else 0.0:>16.6f} ratio")
    for failure in out.failures:
        print(f"check FAILED: {failure}")
    failed = out.failed + len(out.failures)
    result = {
        "correct": out.correct,
        "attempted": max(out.attempted, failed, 1),
        "failed": failed,
        "metrics": {name: {"value": out.metrics[name], "unit": specs[name][0]}
                    for name in specs if name in out.metrics},
    }
    with open(f"{stem}.result.json", "w") as fh:
        json.dump({"environment": env, **out.extra, "failures": out.failures,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if out.correct else 1
