"""Spans around the calls into each skewrec module, recorded from outside.

`Tracer.install()` rebinds the public names that callers resolve (for
example `attention.cholesky_backward`, `kernels.item_gram`,
`losses.listmle_loss`, `corpus.sample_negatives`) to wrappers that record a
span per call: name, start, end, parent span and run id. The wrappers return
the wrapped function's result untouched and draw no random numbers, so a
traced run computes exactly what an untraced one does. Spans stay in memory
until `write_spans` is called at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import numpy as np

from skewrec import attention, corpus, evaluation, kernels, losses, model, \
    skewnorm, training

# (namespace the caller resolves the name in, attribute, span name)
BINDINGS = [
    (corpus, "load_interactions", "corpus.load_interactions"),
    (corpus, "build_sequences", "corpus.build_sequences"),
    (corpus, "split_leave_one_out", "corpus.split_leave_one_out"),
    (corpus, "build_cooc", "corpus.build_cooc"),
    (corpus, "sample_negatives", "corpus.sample_negatives"),
    (evaluation, "sample_negatives", "corpus.sample_negatives"),
    (corpus.CoocStats, "window", "corpus.CoocStats.window"),
    (corpus.CoocStats, "counting_base", "corpus.CoocStats.counting_base"),
    (model.Featurizer, "batch_features", "model.batch_features"),
    (model.Featurizer, "row_features", "model.row_features"),
    (model, "alpha_hat", "attention.alpha_hat"),
    (model, "training_step_loss", "model.training_step_loss"),
    (model, "forward", "model.forward"),
    (model, "backward", "model.backward"),
    (model, "scatter_rows", "model.scatter_rows"),
    (model, "last_hidden", "model.last_hidden"),
    (model, "layer_norm", "nnops.layer_norm"),
    (training, "clip_global_norm", "training.clip_global_norm"),
    (training.Adam, "step", "training.adam_step"),
    (kernels, "item_gram", "kernels.item_gram"),
    (kernels, "user_gram", "kernels.user_gram"),
    (kernels, "item_gram_backward", "kernels.item_gram_backward"),
    (kernels, "user_gram_backward", "kernels.user_gram_backward"),
    (kernels, "mixture", "kernels.mixture"),
    (kernels, "normalize_correlation", "kernels.normalize_correlation"),
    (kernels, "normalize_correlation_backward", "kernels.normalize_correlation_backward"),
    (attention, "cholesky_lower", "nnops.cholesky_lower"),
    (attention, "cholesky_backward", "nnops.cholesky_backward"),
    (attention, "bilinear_scores", "nnops.bilinear_scores"),
    (attention, "bilinear_scores_backward", "nnops.bilinear_scores_backward"),
    (attention, "masked_softmax", "nnops.masked_softmax"),
    (attention, "softplus", "nnops.softplus"),
    (skewnorm, "delta", "skewnorm.delta"),
    (losses, "prediction_loss", "losses.prediction_loss"),
    (losses, "listmle_loss", "losses.listmle_loss"),
    (evaluation, "evaluate", "evaluation.evaluate"),
    (evaluation, "eval_negatives", "evaluation.eval_negatives"),
    (evaluation, "rank_target", "evaluation.rank_target"),
]

# nominal cost of one reverse-mode Cholesky backward on an n x n factor:
# the L^T dL product (2n^3) plus two triangular solves with n right-hand
# sides (n^3 each); independent of how the program implements it
CHOLESKY_BACKWARD_FLOPS_PER_N3 = 4.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, run, start_ns, end_ns)
        self.run = "setup"
        self.calls: Counter = Counter()
        self.counters: dict = defaultdict(float)  # (run, key) -> value
        self._clamp_inputs: list = []             # (run, pass_mask, valid)
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self.calls[name] += 1
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, name, self.run, start, end))
        return traced

    def _row_features(self, fn):
        def counted(feat, *args, **kwargs):
            before = self.calls["corpus.CoocStats.window"]
            out = fn(feat, *args, **kwargs)
            if self.calls["corpus.CoocStats.window"] > before:  # a cache miss
                self.counters[(self.run, "misses")] += 1
                self.counters[(self.run, "cache_bytes")] += sum(a.nbytes for a in out)
                self.counters[(self.run, "featurizers", id(feat))] = 1
            return out
        return counted

    def _normalize_correlation(self, fn):
        def counted(psi_tilde, jitter, valid=None):
            psi, cache = fn(psi_tilde, jitter, valid)
            self._clamp_inputs.append((self.run, cache[2], valid))
            return psi, cache
        return counted

    def _cholesky_backward(self, fn):
        def counted(chol, d_chol):
            n = chol.shape[-1]
            flops = CHOLESKY_BACKWARD_FLOPS_PER_N3 * n ** 3 * chol.size / (n * n)
            self.counters[(self.run, "cholesky_backward_flops")] += flops
            return fn(chol, d_chol)
        return counted

    def install(self):
        """Rebind every name in BINDINGS; `uninstall` restores the originals."""
        counting = {"model.row_features": self._row_features,
                    "kernels.normalize_correlation": self._normalize_correlation,
                    "nnops.cholesky_backward": self._cholesky_backward}
        for owner, attr, name in BINDINGS:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            fn = counting[name](orig) if name in counting else orig
            setattr(owner, attr, self.wrap(name, fn))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def clamped_frac(self, run: str) -> float:
        """Share of valid off-diagonal correlation entries that were clamped."""
        clamped = total = 0
        for r, pass_mask, valid in self._clamp_inputs:
            if r != run:
                continue
            n = pass_mask.shape[-1]
            pair = np.ones(pass_mask.shape, dtype=bool) if valid is None else \
                valid[..., :, None] & valid[..., None, :]
            pair &= ~np.eye(n, dtype=bool)
            total += int(pair.sum())
            clamped += int((pair & ~pass_mask).sum())
        return clamped / total if total else 0.0

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for sid, parent, _, _, start, end in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, _, _, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def module_table(spans) -> list[tuple]:
    """Per module: (module, total s, self s, calls).

    Total counts only a module's outermost spans, so nested calls within one
    module (model.training_step_loss around model.forward) are not counted
    twice; self time is summed over all the module's spans.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    total, own, calls = Counter(), Counter(), Counter()
    for sid, parent, name, _, start, end in spans:
        mod = name.split(".")[0]
        calls[mod] += 1
        own[mod] += selfs[sid]
        outer = parent
        while outer in by_id and by_id[outer][2].split(".")[0] != mod:
            outer = by_id[outer][1]
        if outer not in by_id:
            total[mod] += end - start
    return sorted(((m, total[m] / 1e9, own[m] / 1e9, calls[m]) for m in calls),
                  key=lambda row: -row[1])


def format_table(rows) -> str:
    lines = [f"{'module':<12}{'total_s':>12}{'self_s':>12}{'calls':>10}"]
    lines += [f"{m:<12}{t:>12.4f}{s:>12.4f}{c:>10d}" for m, t, s, c in rows]
    return "\n".join(lines)
