import csv
import json
import os

import numpy as np
import pytest

from skewrec import cli, model

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
        assert any(f.startswith("correlation_block0") for f in files)
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
            out_dir, "correlation_block0_head0.csv"))))
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
