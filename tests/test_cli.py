import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from skewrec import cli, corpus, model
from skewrec.config import TrainConfig

from conftest import synth_log_lines


@pytest.fixture
def raw_corpus(tmp_path):
    rng = np.random.default_rng(21)
    lines = synth_log_lines(30, 25, rng, min_len=4, max_len_actions=9)
    path = tmp_path / "raw.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def prepared(raw_corpus, tmp_path):
    data_dir = str(tmp_path / "data")
    assert cli.main(["prepare", "--input", raw_corpus, "--out-dir", data_dir,
                     "--max-len", "10"]) == 0
    return data_dir


@pytest.fixture
def trained(prepared, tmp_path):
    run_dir = str(tmp_path / "run")
    code = cli.main(["train", "--data-dir", prepared, "--out-dir", run_dir,
                     "--dim", "8", "--blocks", "1", "--max-epochs", "2",
                     "--eval-every", "1", "--batch-size", "16", "--dropout", "0.1",
                     "--seed", "5"])
    assert code == 0
    return run_dir


class TestPrepare:
    def test_outputs_and_stats(self, raw_corpus, tmp_path, capsys):
        data_dir = str(tmp_path / "data")
        assert cli.main(["prepare", "--input", raw_corpus,
                         "--out-dir", data_dir]) == 0
        out = capsys.readouterr().out
        assert "users" in out and "avg act/item" in out
        assert os.path.exists(os.path.join(data_dir, "dataset.json"))
        assert os.path.exists(os.path.join(data_dir, "cooc.npz"))

    def test_idempotent(self, raw_corpus, tmp_path):
        data_dir = str(tmp_path / "data")
        cli.main(["prepare", "--input", raw_corpus, "--out-dir", data_dir])
        first = open(os.path.join(data_dir, "dataset.json")).read()
        cli.main(["prepare", "--input", raw_corpus, "--out-dir", data_dir])
        assert open(os.path.join(data_dir, "dataset.json")).read() == first

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert cli.main(["prepare", "--input", str(tmp_path / "nope.txt"),
                         "--out-dir", str(tmp_path / "d")]) == 2

    def test_bad_flag_is_usage_error(self, capsys):
        assert cli.main(["prepare", "--no-such-flag", "x"]) == 1


# a value of the wrong JSON type for every TrainConfig field and both path
# keys, as a config file spells the key; the kernel fields sit in its
# "kernel" object
WRONG_TYPES = [
    ("batch_size", 12.5), ("dim", True), ("blocks", 1.0), ("heads", "1"),
    ("dropout", True), ("lr", "0.1"), ("lambda_r", True), ("max_len", 5.0),
    ("k_neg_train", True), ("k_neg_eval", "100"), ("max_epochs", 1.5),
    ("patience", None), ("seed", "3"), ("lr_decay_factor", "0.5"),
    ("eval_every", True), ("dtype", None), ("grad_clip", "5"),
    ("kernel.active", ["C"]), ("kernel.item_variant", 1), ("kernel.jitter", "0.1"),
    ("baseline", "false"), ("omega_cap", True), ("eval_mode", 1),
    ("eval_samples", 2.0), ("full_catalog_eval", 1),
    ("data_dir", None), ("out_dir", 5),
]


class TestTrainEval:
    def test_train_writes_artifacts(self, trained):
        assert os.path.exists(os.path.join(trained, "checkpoint.npz"))
        assert os.path.exists(os.path.join(trained, "config.json"))
        log_lines = open(os.path.join(trained, "train_log.jsonl")).read().splitlines()
        parsed = [json.loads(l) for l in log_lines]
        assert any("total" in e for e in parsed)
        assert any("val_hit10" in e for e in parsed)
        step = next(e for e in parsed if "total" in e)
        assert {"epoch", "step", "l_z", "l_rank", "total", "lr"} <= set(step)

    def test_eval_multi_seed_aggregate(self, trained, prepared, tmp_path, capsys):
        out_dir = str(tmp_path / "evalout")
        code = cli.main(["eval", "--checkpoint", os.path.join(trained, "checkpoint.npz"),
                         "--data-dir", prepared, "--split", "test",
                         "--seeds", "1,2,3", "--out-dir", out_dir])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        per_seed = [l for l in lines if "seed" in l]
        agg = [l for l in lines if l.get("aggregate")]
        assert len(per_seed) == 3 and len(agg) == 1
        assert "hit10_mean" in agg[0] and "hit10_sd" in agg[0]
        ranks = list(csv.reader(open(os.path.join(out_dir, "ranks_test_seed1.csv"))))
        assert ranks[0] == ["user", "rank"]
        assert os.path.exists(os.path.join(out_dir, "metrics_test.json"))

    def test_eval_seeds_share_one_featurization(self, trained, prepared, monkeypatch, capsys):
        """Seeds change only the sampled negatives, so three seeds gather the
        co-occurrence windows exactly as often as one does."""
        gathers = []
        window = corpus.CoocStats.window
        monkeypatch.setattr(corpus.CoocStats, "window",
                            lambda self, ids: gathers.append(len(ids)) or window(self, ids))
        ckpt = os.path.join(trained, "checkpoint.npz")
        counts = []
        for seeds in ("0", "0,1,2"):
            gathers.clear()
            assert cli.main(["eval", "--checkpoint", ckpt, "--data-dir", prepared,
                             "--seeds", seeds]) == 0
            counts.append(len(gathers))
        assert counts[0] > 0 and counts[1] == counts[0]

    def test_missing_checkpoint_is_data_error(self, prepared, tmp_path):
        assert cli.main(["eval", "--checkpoint", str(tmp_path / "no.npz"),
                         "--data-dir", prepared]) == 2

    def test_config_file_with_unknown_key_rejected(self, prepared, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dim": 8, "not_a_key": 1}))
        assert cli.main(["train", "--config", str(cfg_path),
                         "--data-dir", prepared]) == 1

    def test_config_file_plus_flag_override(self, prepared, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dim": 8, "blocks": 1, "max_epochs": 1, "batch_size": 16,
            "dropout": 0.0, "eval_every": 1,
            "kernel": {"active": "C+I", "jitter": 1e-5},
            "data_dir": prepared}))
        run_dir = str(tmp_path / "run2")
        assert cli.main(["train", "--config", str(cfg_path), "--out-dir", run_dir,
                         "--kernel", "I"]) == 0
        saved = json.loads(open(os.path.join(run_dir, "config.json")).read())
        assert saved["kernel_active"] == "I"  # flag wins over file
        assert saved["dim"] == 8

    @pytest.mark.parametrize("bad", [
        {"eval_samples": 0, "eval_mode": "stochastic"},
        {"kernel": {"jitter": 1.5}}, {"kernel": {"jitter": 1.0}}, {"kernel": {"jitter": -0.1}},
        {"omega_cap": 0.0}, {"omega_cap": -1.0},
        {"lr": 0.0}, {"lr": -0.001},
        {"lambda_r": -0.1}, {"lambda_r": float("nan")}, {"lambda_r": float("inf")},
        {"grad_clip": -1.0}, {"patience": -1},
        {"lr_decay_factor": 0.0}, {"lr_decay_factor": 1.5},
    ], ids=lambda bad: json.dumps(bad))
    def test_invalid_config_value_exits_1_before_training(self, prepared, tmp_path,
                                                          capsys, bad):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dim": 8, "blocks": 1, "max_epochs": 1, "batch_size": 16,
            "eval_every": 1, "data_dir": prepared, **bad}))
        run_dir = tmp_path / "run_bad"
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out-dir", str(run_dir)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (run_dir / "train_log.jsonl").exists()

    @pytest.mark.parametrize("key,value", WRONG_TYPES,
                             ids=[f"{k}={json.dumps(v)}" for k, v in WRONG_TYPES])
    def test_wrong_value_type_exits_1_before_training(self, prepared, tmp_path,
                                                      capsys, key, value):
        outer, _, inner = key.partition(".")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dim": 8, "blocks": 1, "max_epochs": 1, "batch_size": 16,
            "eval_every": 1, "data_dir": prepared,
            outer: {inner: value} if inner else value}))
        run_dir = tmp_path / "run_bad"
        assert cli.main(["train", "--config", str(cfg_path),
                         "--out-dir", str(run_dir)]) == 1
        assert f"usage error: config key {key!r} must be" in capsys.readouterr().err
        assert not (run_dir / "train_log.jsonl").exists()

    def test_wrong_type_cases_cover_every_key(self):
        keys = {f.name for f in dataclasses.fields(TrainConfig)} | {"data_dir", "out_dir"}
        assert {key.replace(".", "_") for key, _ in WRONG_TYPES} == keys

    def test_baseline_flag(self, prepared, tmp_path):
        run_dir = str(tmp_path / "run3")
        assert cli.main(["train", "--data-dir", prepared, "--out-dir", run_dir,
                         "--dim", "8", "--blocks", "1", "--max-epochs", "1",
                         "--eval-every", "1", "--batch-size", "16",
                         "--baseline"]) == 0
        saved = json.loads(open(os.path.join(run_dir, "config.json")).read())
        assert saved["baseline"] is True


def shape_of(data_dir):
    ds = json.loads(open(os.path.join(data_dir, "dataset.json")).read())
    return f"{ds['n_items']} items x {len(ds['user_ids'])} users"


class TestFailurePaths:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_loss_exits_3_with_batch_dump(self, prepared, tmp_path,
                                                     monkeypatch, capsys):
        init_params = model.init_params

        def poisoned(*args, **kwargs):
            params = init_params(*args, **kwargs)
            params.blocks[0].ffn_w1[0, 0] = np.nan
            return params

        monkeypatch.setattr(model, "init_params", poisoned)
        run_dir = tmp_path / "run_nan"
        code = cli.main(["train", "--data-dir", prepared, "--out-dir", str(run_dir),
                         "--dim", "8", "--blocks", "1", "--max-epochs", "1",
                         "--batch-size", "16", "--seed", "5"])
        assert code == 3
        assert "epoch 1 step 1" in capsys.readouterr().err
        dump = np.load(run_dir / "bad_batch.npz")
        assert dump["item_ids"].shape[0] == 16

    @pytest.mark.parametrize("case,edit,message", [
        ("unknown_key", lambda m: m["config"].update(not_a_field=1), "not_a_field"),
        ("out_of_range", lambda m: m["config"].update(lr=-1), "lr must be positive"),
        ("format_2", lambda m: m.update(format_version=2), "format version 2 is not 3"),
    ], ids=["unknown_key", "out_of_range", "format_2"])
    def test_bad_checkpoint_config_exits_2(self, trained, prepared, tmp_path, capsys,
                                           case, edit, message):
        bad = tmp_path / f"{case}.npz"
        _rewrite_meta(os.path.join(trained, "checkpoint.npz"), bad, edit)
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(bad), "--data-dir", prepared]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err

    @pytest.mark.parametrize("n_users,n_items", [(40, 35), (15, 12)])
    def test_checkpoint_dataset_mismatch_exits_2(self, trained, prepared, tmp_path,
                                                 capsys, n_users, n_items):
        raw = tmp_path / f"raw_{n_users}.txt"
        lines = synth_log_lines(n_users, n_items, np.random.default_rng(3),
                                min_len=4, max_len_actions=9)
        raw.write_text("\n".join(lines) + "\n")
        other = str(tmp_path / f"data_{n_users}")
        assert cli.main(["prepare", "--input", str(raw), "--out-dir", other,
                         "--max-len", "10"]) == 0
        ckpt = os.path.join(trained, "checkpoint.npz")
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", ckpt, "--data-dir", other]) == 2
        err = capsys.readouterr().err
        assert shape_of(prepared) in err and shape_of(other) in err
        assert cli.main(["inspect", "--checkpoint", ckpt, "--data-dir", other,
                         "--out-dir", str(tmp_path / "ins"), "--user-id", "0"]) == 2


def _rewrite_meta(src, dst, edit):
    """Copy checkpoint `src` to `dst` with `edit` applied to its metadata."""
    with np.load(src) as blob:
        arrays = {k: blob[k] for k in blob.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    edit(meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(dst, **arrays)


def _tamper_cooc(path, case):
    """Rewrite a prepared cooc.npz into one kind of corrupt file."""
    if case == "garbage":
        path.write_bytes(b"\x00 not an npz archive \xff" * 8)
        return
    if case == "truncated":
        path.write_bytes(path.read_bytes()[:100])
        return
    with np.load(path) as blob:
        arrays = {k: blob[k] for k in blob.files}
    if case == "pair_past_catalog":
        arrays["pair_j"][0] = arrays["item_count"].size + 4
    elif case == "pair_is_padding":
        arrays["pair_i"][0] = 0
    elif case == "missing_pair_count":
        del arrays["pair_count"]
    elif case == "negative_pair_count":
        arrays["pair_count"][0] = -1
    elif case == "negative_item_count":
        arrays["item_count"][1] = -3
    elif case == "more_items_than_dataset":
        arrays["item_count"] = np.append(arrays["item_count"], 0)
    elif case == "pair_above_item_count":
        i, j = arrays["pair_i"][0], arrays["pair_j"][0]
        arrays["pair_count"][0] = min(arrays["item_count"][i], arrays["item_count"][j]) + 1
    elif case == "repeated_pair_above_item_count":
        # each entry is within its items' counts, their sum is not
        i, j, c = arrays["pair_i"][0], arrays["pair_j"][0], arrays["pair_count"][0]
        top = min(arrays["item_count"][i], arrays["item_count"][j])
        for name, value in (("pair_i", i), ("pair_j", j), ("pair_count", top - c + 1)):
            arrays[name] = np.append(arrays[name], value)
    elif case == "pair_above_user_count":
        # within both items' counts, but more users than the dataset holds
        i, j = arrays["pair_i"][0], arrays["pair_j"][0]
        n_users = len(json.loads((path.parent / "dataset.json").read_text())["user_ids"])
        arrays["item_count"][[i, j]] = n_users + 1
        arrays["pair_count"][0] = n_users + 1
    np.savez(path, **arrays)


class TestCorruptCooc:
    @pytest.mark.parametrize("case", [
        "garbage", "truncated", "pair_past_catalog", "pair_is_padding",
        "missing_pair_count", "negative_pair_count", "negative_item_count",
        "more_items_than_dataset", "pair_above_item_count", "repeated_pair_above_item_count",
        "pair_above_user_count"])
    def test_train_exits_2(self, prepared, tmp_path, capsys, case):
        path = tmp_path / "data" / "cooc.npz"
        _tamper_cooc(path, case)
        code = cli.main(["train", "--data-dir", prepared, "--out-dir",
                         str(tmp_path / "run"), "--dim", "8", "--blocks", "1",
                         "--max-epochs", "1", "--batch-size", "16"])
        assert code == 2
        assert "cooc" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_exit_zero_and_report(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        assert cli.main(["gradcheck", "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["passed"] is True
        assert "max rel err" in capsys.readouterr().out


class TestInspect:
    def test_user_export(self, trained, prepared, tmp_path):
        out_dir = str(tmp_path / "inspect")
        split = json.loads(open(os.path.join(prepared, "dataset.json")).read())
        user = split["user_ids"][0]
        code = cli.main(["inspect", "--checkpoint",
                         os.path.join(trained, "checkpoint.npz"),
                         "--data-dir", prepared, "--out-dir", out_dir,
                         "--user-id", str(user)])
        assert code == 0
        files = os.listdir(out_dir)
        assert "kernel_mixture.csv" in files
        assert "item_embeddings.csv" in files
        assert "frequency_ranks.csv" in files
        assert any(f.startswith("psi_block0") for f in files)
        # mixture rows sum to 1
        rows = list(csv.reader(open(os.path.join(out_dir, "kernel_mixture.csv"))))
        for row in rows[1:]:
            assert sum(float(v) for v in row[1:]) == pytest.approx(1.0, abs=1e-5)
        # attention CSV: first row is the indicator, second sums to ~1
        attn_file = next(f for f in files if f.startswith("attention_block0"))
        arows = list(csv.reader(open(os.path.join(out_dir, attn_file))))
        weights = [float(v) for v in arows[1]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-5)

    def test_synthetic_sequence(self, trained, prepared, tmp_path):
        out_dir = str(tmp_path / "inspect_syn")
        split = json.loads(open(os.path.join(prepared, "dataset.json")).read())
        items = ",".join(str(i) for i in split["item_ids"][:4])
        code = cli.main(["inspect", "--checkpoint",
                         os.path.join(trained, "checkpoint.npz"),
                         "--data-dir", prepared, "--out-dir", out_dir,
                         "--items", items])
        assert code == 0
        corr = list(csv.reader(open(os.path.join(
            out_dir, "psi_block0_head0.csv"))))
        assert len(corr) == 4

    def test_unknown_item_is_data_error(self, trained, prepared, tmp_path):
        assert cli.main(["inspect", "--checkpoint",
                         os.path.join(trained, "checkpoint.npz"),
                         "--data-dir", prepared,
                         "--out-dir", str(tmp_path / "x"),
                         "--items", "999999,999998"]) == 2

    def test_output_root_env(self, trained, prepared, tmp_path, monkeypatch):
        monkeypatch.setenv("SKEWREC_OUTPUT_ROOT", str(tmp_path / "root"))
        split = json.loads(open(os.path.join(prepared, "dataset.json")).read())
        user = split["user_ids"][0]
        assert cli.main(["inspect", "--checkpoint",
                         os.path.join(trained, "checkpoint.npz"),
                         "--data-dir", prepared, "--out-dir", "rel_out",
                         "--user-id", str(user)]) == 0
        assert os.path.isdir(str(tmp_path / "root" / "rel_out"))
