"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import os
import re

import numpy as np

import corpus_gen
import harness
import metrics
import run
import tracing
import workloads as wl
from skewrec import attention, kernels, model

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    first = corpus_gen.generate(1)
    assert first == corpus_gen.generate(1)
    assert first != corpus_gen.generate(2)
    users = {line.split()[0] for line in first}
    items = {line.split()[1] for line in first}
    assert (len(users), len(items)) == (corpus_gen.N_USERS, corpus_gen.N_ITEMS)


def test_shape_check_flags_drift():
    good = {"users": 6040, "items": 3416, "max_train_len": 48}
    assert corpus_gen.check_shape(good) == []
    for key, value in (("users", 6000), ("items", 3417), ("max_train_len", 198)):
        assert len(corpus_gen.check_shape({**good, key: value})) == 1


def test_metric_names_are_well_formed_and_match_benchmark_json():
    names = list(metrics.END_TO_END) + list(metrics.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(wl.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == metrics.PER_LAYER


def test_self_time_on_a_hand_built_span_tree():
    spans = [  # (id, parent, name, run, start, end)
        (0, -1, "model.forward", "cold", 0, 100),
        (1, 0, "nnops.a", "cold", 10, 30),
        (2, 0, "kernels.b", "cold", 40, 70),
        (3, 2, "nnops.c", "cold", 50, 60),
        (4, -1, "model.backward", "cold", 200, 260),
        (5, 4, "nnops.d", "cold", 210, 230),
        (6, 4, "nnops.e", "cold", 220, 240),  # overlaps its sibling
    ]
    assert tracing.self_times(spans) == {0: 50, 1: 20, 2: 20, 3: 10, 4: 30, 5: 20, 6: 20}
    table = {row[0]: row[1:] for row in tracing.module_table(spans)}
    assert table["model"] == (160e-9, 80e-9, 2)
    assert table["nnops"] == (70e-9, 70e-9, 4)   # nnops.c counts under kernels.b
    assert table["kernels"] == (30e-9, 20e-9, 1)


def test_tracer_rebinds_and_restores_without_changing_results():
    original = (attention.cholesky_backward, kernels.item_gram,
                model.Featurizer.batch_features)
    x = np.random.default_rng(0).standard_normal((2, 5, 3))
    expected = kernels.item_gram(x)
    tracer = tracing.Tracer()
    with tracer:
        assert kernels.item_gram is not original[1]
        got = kernels.item_gram(x)
    assert np.array_equal(got, expected)
    assert [s[2] for s in tracer.spans] == ["kernels.item_gram"]
    assert (attention.cholesky_backward, kernels.item_gram,
            model.Featurizer.batch_features) == original


def test_nan_in_one_step_loss_fails_the_checks_with_nonzero_exit(monkeypatch, capsys):
    real_step = model.training_step_loss
    calls = []

    def nan_on_third_step(*args, **kwargs):
        report, grads = real_step(*args, **kwargs)
        calls.append(1)
        if len(calls) == 3:
            report.total = float("nan")
        return report, grads

    monkeypatch.setattr(model, "training_step_loss", nan_on_third_step)
    monkeypatch.setattr(wl, "SETUP_REPEATS", 1)
    monkeypatch.setattr(wl, "PASS_USERS", 512)
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    code = run.main(["--workload", "train-base", "--seed", "5", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert len(calls) == 3  # the pass stopped at the bad step


def test_outcome_counts_failed_steps():
    cycle = {"cold": wl.PassResult(losses=[1.0, float("nan")], error="step 2: nan")}
    out = harness.Outcome()
    out.add_training(cycle)
    assert (out.attempted, out.failed, out.correct) == (2, 1, False)
