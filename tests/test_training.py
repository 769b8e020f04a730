import numpy as np
import pytest

from skewrec import corpus, evaluation, model, training
from skewrec.config import TrainConfig
from skewrec.errors import DataError

from conftest import build_corpus, synth_log_lines


def toy_training(tmp_path, n_users=30, n_items=20, seed=0, **cfg_kw):
    rng = np.random.default_rng(seed)
    lines = synth_log_lines(n_users, n_items, rng, min_len=4, max_len_actions=8)
    _, split, cooc = build_corpus(tmp_path, lines, max_len=8)
    defaults = dict(batch_size=16, dim=8, blocks=1, heads=1, dropout=0.2,
                    max_len=8, max_epochs=2, eval_every=1, patience=3,
                    k_neg_eval=5, seed=11, lambda_r=0.01)
    defaults.update(cfg_kw)
    return TrainConfig(**defaults), split, cooc


class TestAdam:
    def test_moves_against_gradient(self):
        cfg = TrainConfig(dim=4, blocks=1, heads=1, max_len=4, dropout=0.0,
                          batch_size=1, k_neg_eval=1)
        params = model.init_params(cfg, 3, 2, np.random.default_rng(0))
        opt = training.Adam(params, lr=0.1)
        grads = model.zeros_like_params(params)
        grads.user_emb[:] = 1.0
        before = params.user_emb.copy()
        opt.step(params, grads)
        assert np.all(params.user_emb < before)

    def test_clip_global_norm(self):
        cfg = TrainConfig(dim=4, blocks=1, heads=1, max_len=4, dropout=0.0,
                          batch_size=1, k_neg_eval=1)
        params = model.init_params(cfg, 3, 2, np.random.default_rng(0))
        grads = model.zeros_like_params(params)
        grads.item_emb[:] = 10.0
        norm = training.clip_global_norm(grads, 5.0)
        assert norm > 5.0
        total = sum(float(np.sum(a.astype(np.float64) ** 2))
                    for _, a in model.named_tensors(grads))
        assert np.sqrt(total) == pytest.approx(5.0, rel=1e-6)


class TestTrainLoop:
    def test_loss_logged_and_decreases_on_toy(self, tmp_path):
        cfg, split, cooc = toy_training(tmp_path, max_epochs=8, eval_every=4,
                                        dropout=0.0)
        result = training.train(cfg, split, cooc)
        steps = [e for e in result.log if "total" in e]
        assert len(steps) >= 8
        first = np.mean([e["total"] for e in steps[:4]])
        last = np.mean([e["total"] for e in steps[-4:]])
        assert last < first

    def test_same_seed_identical_logs(self, tmp_path):
        cfg, split, cooc = toy_training(tmp_path, max_epochs=2)
        a = training.train(cfg, split, cooc)
        b = training.train(cfg, split, cooc)
        assert a.log == b.log
        for (_, x), (_, y) in zip(model.named_tensors(a.checkpoint.params),
                                  model.named_tensors(b.checkpoint.params)):
            assert np.array_equal(x, y)

    def test_patience_zero_stops_at_first_stall(self, tmp_path):
        cfg, split, cooc = toy_training(tmp_path, max_epochs=50, eval_every=1,
                                        patience=0, lr=0.0)  # lr 0: metric never moves
        result = training.train(cfg, split, cooc)
        evals = [e for e in result.log if "val_hit10" in e]
        assert len(evals) == 2  # baseline epoch, then the first non-improving one

    def test_lr_decays_on_stall(self, tmp_path):
        cfg, split, cooc = toy_training(tmp_path, max_epochs=6, eval_every=1,
                                        patience=5, lr=1e-12, lr_decay_factor=0.5)
        result = training.train(cfg, split, cooc)
        lrs = [e["lr"] for e in result.log if "val_hit10" in e]
        assert lrs[-1] < lrs[0]

    def test_padding_row_stays_zero(self, tmp_path):
        cfg, split, cooc = toy_training(tmp_path, max_epochs=3)
        result = training.train(cfg, split, cooc)
        assert not result.checkpoint.params.item_emb[0].any()

    def test_baseline_mode_trains(self, tmp_path):
        cfg, split, cooc = toy_training(tmp_path, max_epochs=2, baseline=True)
        result = training.train(cfg, split, cooc)
        steps = [e for e in result.log if "total" in e]
        assert all(e["l_rank"] == 0.0 for e in steps)


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        cfg, split, cooc = toy_training(tmp_path, max_epochs=1)
        result = training.train(cfg, split, cooc)
        path = str(tmp_path / "ckpt.npz")
        training.save_checkpoint(result.checkpoint, path)
        loaded = training.load_checkpoint(path)
        for (_, x), (_, y) in zip(model.named_tensors(result.checkpoint.params),
                                  model.named_tensors(loaded.params)):
            assert np.array_equal(x, y)
        before = evaluation.evaluate(result.checkpoint.params, cfg, split, cooc,
                                     "test", seed=2)
        after = evaluation.evaluate(loaded.params, loaded.config, split, cooc,
                                    "test", seed=2)
        np.testing.assert_array_equal(before.per_user_ranks, after.per_user_ranks)

    def test_truncated_file_errors(self, tmp_path):
        cfg, split, cooc = toy_training(tmp_path, max_epochs=1)
        result = training.train(cfg, split, cooc)
        path = str(tmp_path / "ckpt.npz")
        training.save_checkpoint(result.checkpoint, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:len(blob) // 3])
        with pytest.raises(DataError):
            training.load_checkpoint(path)

    def test_version_mismatch_errors(self, tmp_path, monkeypatch):
        cfg, split, cooc = toy_training(tmp_path, max_epochs=1)
        result = training.train(cfg, split, cooc)
        path = str(tmp_path / "ckpt.npz")
        monkeypatch.setattr(training, "CHECKPOINT_FORMAT_VERSION", 1)
        training.save_checkpoint(result.checkpoint, path)
        monkeypatch.undo()
        with pytest.raises(DataError, match="version 1 is not 2"):
            training.load_checkpoint(path)


class TestGradCheck:
    def test_passes_on_reference_model(self):
        report = training.grad_check()
        assert report["passed"], report
        assert report["max_rel_err"] < 1e-4

    def test_covers_every_parameter_group(self):
        report = training.grad_check()
        expected = {"embeddings", "location head", "scale head", "shape head",
                    "kernel mixture", "ffn", "norms", "attention value"}
        assert expected <= set(report["groups"])

    def test_detects_corrupted_gradient(self):
        report = training.grad_check(corrupt="block0.h0.wq_loc")
        assert not report["passed"]
        assert report["worst_tensor"] == "block0.h0.wq_loc"

    def test_requires_float64(self):
        cfg = training.gradcheck_config()
        cfg.dtype = "float32"
        with pytest.raises(ValueError):
            training.grad_check(cfg)

    @pytest.mark.parametrize("kw", [
        dict(blocks=2, heads=2, kernel_item_variant="rbf"),
        dict(kernel_active="C"),
        dict(stochastic_rows="last"),
    ])
    def test_passes_on_structural_variants(self, kw):
        base = dict(batch_size=1, dim=8, blocks=1, heads=1, dropout=0.0,
                    lambda_r=0.1, max_len=5, max_epochs=1, seed=7,
                    dtype="float64")
        base.update(kw)
        report = training.grad_check(TrainConfig(**base))
        assert report["passed"], report["worst_tensor"]
