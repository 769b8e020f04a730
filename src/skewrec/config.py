"""Run configuration: hyperparameters, kernel selection, and paths.

Config files are JSON; every key must be known (typos are rejected rather
than silently ignored). Command-line flags override file values.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import UsageError

KERNEL_CODES = ("C", "I", "U")  # counting, item, user


@dataclass
class TrainConfig:
    batch_size: int = 128
    dim: int = 64
    blocks: int = 2
    heads: int = 1
    dropout: float = 0.5
    lr: float = 0.001
    lambda_r: float = 0.001
    max_len: int = 50
    k_neg_train: int = 1
    k_neg_eval: int = 100
    max_epochs: int = 200
    patience: int = 3
    seed: int = 42
    lr_decay_factor: float = 0.5
    eval_every: int = 5
    dtype: str = "float32"
    grad_clip: float = 5.0
    # kernel block
    kernel_active: str = "C+I+U"
    kernel_item_variant: str = "linear"
    kernel_jitter: float = 1e-5
    # attention behaviour
    stochastic_rows: str = "all"  # "all" or "last"
    baseline: bool = False  # deterministic location-only path, no rank loss
    omega_cap: float | None = None  # clamp the per-key scales (degenerate-limit runs)
    # evaluation behaviour
    eval_mode: str = "location"  # location | mean_shift | stochastic
    eval_samples: int = 1
    full_catalog_eval: bool = False

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise UsageError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("batch_size", "dim", "blocks", "heads", "max_len",
                     "k_neg_train", "k_neg_eval", "max_epochs", "eval_every"):
            if getattr(self, name) <= 0:
                raise UsageError(f"{name} must be positive")
        if self.max_len < 3:
            raise UsageError("max_len must be at least 3")
        if self.dim % self.heads != 0:
            raise UsageError(f"dim ({self.dim}) must be divisible by heads ({self.heads})")
        if self.dtype not in ("float32", "float64"):
            raise UsageError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.kernel_item_variant not in ("linear", "rbf"):
            raise UsageError(f"kernel_item_variant must be linear or rbf")
        if self.stochastic_rows not in ("all", "last"):
            raise UsageError("stochastic_rows must be 'all' or 'last'")
        if self.eval_mode not in ("location", "mean_shift", "stochastic"):
            raise UsageError(f"unknown eval_mode {self.eval_mode!r}")
        self.active_kernels()  # validate syntax

    def active_kernels(self) -> tuple[str, ...]:
        """Parse the kernel subset string ("C", "I+U", "C+I+U", ...)."""
        parts = tuple(p.strip().upper() for p in self.kernel_active.split("+") if p.strip())
        if not parts or any(p not in KERNEL_CODES for p in parts) or len(set(parts)) != len(parts):
            raise UsageError(
                f"kernel_active must be a '+'-joined subset of C,I,U; got {self.kernel_active!r}")
        return tuple(k for k in KERNEL_CODES if k in parts)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class RunConfig:
    """TrainConfig plus dataset/output paths, as read from a config file."""
    train: TrainConfig = field(default_factory=TrainConfig)
    data_dir: str = ""
    out_dir: str = ""


_NESTED_KEYS = {
    "kernel": {"active": "kernel_active", "item_variant": "kernel_item_variant",
               "jitter": "kernel_jitter"},
}
_PATH_KEYS = {"data_dir", "out_dir"}


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON object, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise UsageError("config root must be a JSON object")
    flat: dict = {}
    paths: dict = {}
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    for key, value in raw.items():
        if key in _NESTED_KEYS:
            if not isinstance(value, dict):
                raise UsageError(f"config key {key!r} must be an object")
            for sub, subval in value.items():
                if sub not in _NESTED_KEYS[key]:
                    raise UsageError(f"unknown config key {key}.{sub}")
                flat[_NESTED_KEYS[key][sub]] = subval
        elif key in _PATH_KEYS:
            paths[key] = str(value)
        elif key in known:
            flat[key] = value
        else:
            raise UsageError(f"unknown config key {key!r}")
    return RunConfig(train=TrainConfig(**flat), **paths)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)
