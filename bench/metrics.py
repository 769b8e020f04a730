"""Metric names, units and directions, and the per-layer numbers derived
from a traced run's spans.

End-to-end metrics are reported by every workload with tracing off.
Per-layer metrics come from the traced run; those measured per phase carry a
`.cold` suffix (empty featurizer cache at the start of the phase) or a
`.warm` suffix (cache already holding the phase's rows). A metric whose
layer makes no calls in a workload reads 0.
"""

from __future__ import annotations

import numpy as np

from tracing import self_times

PHASES = ("cold", "warm")

# name: (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "cold_pass_seqs_per_s": ("seqs/s", "higher", 0.22),
    "warm_pass_seqs_per_s": ("seqs/s", "higher", 0.22),
    "warm_pass_loss": ("loss", "lower", 0.1),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# per phase: name: (unit, better)
PHASE_LAYER = {
    "corpus.make_batches_s": ("s", "lower"),
    "corpus.sample_negatives_calls": ("count", "lower"),
    "corpus.cooc_gather_calls": ("count", "lower"),
    "model.batch_features_s": ("s", "lower"),
    "model.featurize_hit_ratio": ("ratio", "higher"),
    "model.featurize_cache_mb": ("MB", "lower"),
    "model.training_step_loss_ms_p50": ("ms", "lower"),
    "model.training_step_loss_ms_p75": ("ms", "lower"),
    "model.training_step_loss_calls": ("count", "higher"),
    "model.forward_s": ("s", "lower"),
    "model.backward_s": ("s", "lower"),
    "model.forward_self_s": ("s", "lower"),
    "model.backward_self_s": ("s", "lower"),
    "model.scatter_rows_s": ("s", "lower"),
    "model.last_hidden_s": ("s", "lower"),
    "training.data_wait_frac": ("ratio", "lower"),
    "training.adam_step_s": ("s", "lower"),
    "training.clip_global_norm_s": ("s", "lower"),
    "attention.alpha_hat_calls": ("count", "lower"),
    "attention.alpha_hat_s": ("s", "lower"),
    "kernels.grams_s": ("s", "lower"),
    "kernels.grams_backward_s": ("s", "lower"),
    "kernels.mixture_s": ("s", "lower"),
    "kernels.normalize_correlation_s": ("s", "lower"),
    "kernels.normalize_correlation_backward_s": ("s", "lower"),
    "kernels.clamped_frac": ("ratio", "lower"),
    "nnops.cholesky_lower_s": ("s", "lower"),
    "nnops.cholesky_backward_s": ("s", "lower"),
    "nnops.cholesky_backward_gflop": ("GFLOP/s", "higher"),
    "nnops.bilinear_scores_s": ("s", "lower"),
    "nnops.bilinear_scores_backward_s": ("s", "lower"),
    "nnops.masked_softmax_s": ("s", "lower"),
    "nnops.layer_norm_s": ("s", "lower"),
    "nnops.softplus_s": ("s", "lower"),
    "skewnorm.delta_s": ("s", "lower"),
    "losses.prediction_loss_s": ("s", "lower"),
    "losses.listmle_loss_s": ("s", "lower"),
    "losses.listmle_calls": ("count", "lower"),
    "evaluation.evaluate_s": ("s", "lower"),
    "evaluation.eval_negatives_s": ("s", "lower"),
    "evaluation.eval_negatives_calls": ("count", "lower"),
    "evaluation.rank_target_s": ("s", "lower"),
}

RUN_LAYER = {
    "corpus.prepare_s": ("s", "lower"),
    "corpus.build_cooc_s": ("s", "lower"),
    "bench.stoch_over_base_step": ("ratio", "lower"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
}

PER_LAYER = {f"{name}.{phase}": spec for name, spec in PHASE_LAYER.items()
             for phase in PHASES}
PER_LAYER.update(RUN_LAYER)

PREPARE_SPANS = ("corpus.load_interactions", "corpus.build_sequences",
                 "corpus.split_leave_one_out", "corpus.build_cooc")

# span names whose time counts into one per-layer metric
SUMMED = {
    "corpus.make_batches_s": ("corpus.make_batches",),
    "model.batch_features_s": ("model.batch_features",),
    "model.forward_s": ("model.forward",),
    "model.backward_s": ("model.backward",),
    "model.scatter_rows_s": ("model.scatter_rows",),
    "model.last_hidden_s": ("model.last_hidden",),
    "training.adam_step_s": ("training.adam_step",),
    "training.clip_global_norm_s": ("training.clip_global_norm",),
    "attention.alpha_hat_s": ("attention.alpha_hat",),
    "kernels.grams_s": ("kernels.item_gram", "kernels.user_gram"),
    "kernels.grams_backward_s": ("kernels.item_gram_backward",
                                 "kernels.user_gram_backward"),
    "kernels.mixture_s": ("kernels.mixture",),
    "kernels.normalize_correlation_s": ("kernels.normalize_correlation",),
    "kernels.normalize_correlation_backward_s": ("kernels.normalize_correlation_backward",),
    "nnops.cholesky_lower_s": ("nnops.cholesky_lower",),
    "nnops.cholesky_backward_s": ("nnops.cholesky_backward",),
    "nnops.bilinear_scores_s": ("nnops.bilinear_scores",),
    "nnops.bilinear_scores_backward_s": ("nnops.bilinear_scores_backward",),
    "nnops.masked_softmax_s": ("nnops.masked_softmax",),
    "nnops.layer_norm_s": ("nnops.layer_norm",),
    "nnops.softplus_s": ("nnops.softplus",),
    "skewnorm.delta_s": ("skewnorm.delta",),
    "losses.prediction_loss_s": ("losses.prediction_loss",),
    "losses.listmle_loss_s": ("losses.listmle_loss",),
    "evaluation.evaluate_s": ("evaluation.evaluate",),
    "evaluation.eval_negatives_s": ("evaluation.eval_negatives",),
    "evaluation.rank_target_s": ("evaluation.rank_target",),
}

COUNTED = {
    "corpus.sample_negatives_calls": ("corpus.sample_negatives",),
    "corpus.cooc_gather_calls": ("corpus.CoocStats.window",
                                 "corpus.CoocStats.counting_base"),
    "model.training_step_loss_calls": ("model.training_step_loss",),
    "attention.alpha_hat_calls": ("attention.alpha_hat",),
    "losses.listmle_calls": ("losses.listmle_loss",),
    "evaluation.eval_negatives_calls": ("evaluation.eval_negatives",),
}


def phase_metrics(tracer, phase: str, wall_s: float) -> dict:
    """Per-layer numbers for one phase of a traced run; `wall_s` is the
    phase's wall time."""
    spans = [s for s in tracer.spans if s[3] == phase]
    selfs = self_times(spans)
    dur: dict = {}
    own: dict = {}
    count: dict = {}
    for sid, _, name, _, start, end in spans:
        dur[name] = dur.get(name, 0) + (end - start) / 1e9
        own[name] = own.get(name, 0) + selfs[sid] / 1e9
        count[name] = count.get(name, 0) + 1
    out = {m: sum(dur.get(n, 0.0) for n in names) for m, names in SUMMED.items()}
    out.update({m: float(sum(count.get(n, 0) for n in names))
                for m, names in COUNTED.items()})
    out["model.forward_self_s"] = own.get("model.forward", 0.0)
    out["model.backward_self_s"] = own.get("model.backward", 0.0)

    steps = [(e - s) / 1e6 for _, _, n, _, s, e in spans if n == "model.training_step_loss"]
    out["model.training_step_loss_ms_p50"] = float(np.percentile(steps, 50)) if steps else 0.0
    out["model.training_step_loss_ms_p75"] = float(np.percentile(steps, 75)) if steps else 0.0

    lookups = count.get("model.row_features", 0)
    misses = tracer.counters[(phase, "misses")]
    featurizers = sum(1 for key in tracer.counters
                      if key[:2] == (phase, "featurizers"))
    out["model.featurize_hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0
    out["model.featurize_cache_mb"] = (
        tracer.counters[(phase, "cache_bytes")] / 2 ** 20 / featurizers
        if featurizers else 0.0)
    out["training.data_wait_frac"] = (
        (out["corpus.make_batches_s"] + out["model.batch_features_s"]) / wall_s
        if wall_s > 0 else 0.0)
    out["kernels.clamped_frac"] = tracer.clamped_frac(phase)
    chol_s = out["nnops.cholesky_backward_s"]
    out["nnops.cholesky_backward_gflop"] = (
        tracer.counters[(phase, "cholesky_backward_flops")] / chol_s / 1e9
        if chol_s > 0 else 0.0)
    return {f"{name}.{phase}": out[name] for name in PHASE_LAYER}


def setup_metrics(tracer) -> dict:
    spans = [s for s in tracer.spans if s[3] == "setup"]
    prep = sum(e - s for _, _, n, _, s, e in spans if n in PREPARE_SPANS)
    cooc = sum(e - s for _, _, n, _, s, e in spans if n == "corpus.build_cooc")
    return {"corpus.prepare_s": prep / 1e9, "corpus.build_cooc_s": cooc / 1e9}
