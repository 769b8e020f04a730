import pytest

from skewrec.config import RunConfig, TrainConfig, config_from_dict
from skewrec.errors import UsageError


class TestDefaults:
    def test_experiment_setting_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 128
        assert cfg.dim == 64
        assert cfg.blocks == 2
        assert cfg.heads == 1
        assert cfg.dropout == 0.5
        assert cfg.lr == 0.001
        assert cfg.lambda_r == 0.001
        assert cfg.max_len == 50
        assert cfg.k_neg_train == 1
        assert cfg.k_neg_eval == 100


class TestValidation:
    def test_dropout_range(self):
        with pytest.raises(UsageError):
            TrainConfig(dropout=1.0)

    def test_dim_head_divisibility(self):
        with pytest.raises(UsageError):
            TrainConfig(dim=10, heads=3)

    def test_kernel_subset_syntax(self):
        assert TrainConfig(kernel_active="U+C").active_kernels() == ("C", "U")
        with pytest.raises(UsageError):
            TrainConfig(kernel_active="C+X")
        with pytest.raises(UsageError):
            TrainConfig(kernel_active="")

    def test_eval_mode_checked(self):
        with pytest.raises(UsageError):
            TrainConfig(eval_mode="divine")


class TestConfigFromDict:
    def test_nested_kernel_block(self):
        run = config_from_dict({"kernel": {"active": "C+I", "jitter": 1e-4}})
        assert run.train.kernel_active == "C+I"
        assert run.train.kernel_jitter == 1e-4

    def test_unknown_top_level_key(self):
        with pytest.raises(UsageError, match="unknown config key"):
            config_from_dict({"dum": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(UsageError, match="kernel.bandwidth"):
            config_from_dict({"kernel": {"bandwidth": 2.0}})

    def test_paths_pass_through(self):
        run = config_from_dict({"data_dir": "d", "out_dir": "o"})
        assert (run.data_dir, run.out_dir) == ("d", "o")
