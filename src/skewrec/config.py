"""Run configuration: hyperparameters, kernel selection, and paths.

Config files are JSON; every key must be known (typos are rejected rather
than silently ignored) and every value must have its field's JSON type.
Command-line flags override file values.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field

from .errors import UsageError

KERNEL_CODES = ("C", "I", "U")  # counting, item, user
# what the attention logits are: the location scores, plus the skew-normal
# mean, plus one skew-normal draw
ATTENTION_MODES = ("location", "mean_shift", "stochastic")


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
        if self.eval_samples < 1:
            raise UsageError(f"eval_samples must be at least 1, got {self.eval_samples}")
        if not 0.0 <= self.kernel_jitter < 1.0:
            raise UsageError(f"kernel_jitter must be in [0, 1), got {self.kernel_jitter}")
        if self.omega_cap is not None and not self.omega_cap > 0.0:
            raise UsageError(f"omega_cap must be positive or null, got {self.omega_cap}")
        if not self.lr > 0.0:
            raise UsageError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.lambda_r < math.inf:
            raise UsageError(f"lambda_r must be finite and non-negative, got {self.lambda_r}")
        if not self.grad_clip >= 0.0:
            raise UsageError(f"grad_clip must be non-negative (0 turns clipping off), "
                             f"got {self.grad_clip}")
        if self.patience < 0:
            raise UsageError(f"patience must be non-negative, got {self.patience}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise UsageError(f"lr_decay_factor must be in (0, 1], got {self.lr_decay_factor}")
        if self.max_len < 3:
            raise UsageError("max_len must be at least 3")
        if self.dim % self.heads != 0:
            raise UsageError(f"dim ({self.dim}) must be divisible by heads ({self.heads})")
        if self.dtype not in ("float32", "float64"):
            raise UsageError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if self.kernel_item_variant not in ("linear", "rbf"):
            raise UsageError(f"kernel_item_variant must be linear or rbf")
        if self.eval_mode not in ATTENTION_MODES:
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
_FIELD_TYPES = typing.get_type_hints(TrainConfig)


def _checked(key: str, value, hint):
    """`value` if it has the JSON type of a field annotated `hint`: a bool or
    null only where the field is bool or Optional, an int for int or float,
    a float for float, a str for str."""
    kinds = typing.get_args(hint) or (hint,)
    if isinstance(value, bool) or value is None:
        ok = type(value) in kinds
    else:
        ok = isinstance(value, (int, float) if kinds[0] is float else kinds[0])
    if not ok:
        want = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
        raise UsageError(f"config key {key!r} must be {want}, got {json.dumps(value)}")
    return value


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON object, rejecting unknown keys
    and values of the wrong type."""
    if not isinstance(raw, dict):
        raise UsageError("config root must be a JSON object")
    flat: dict = {}
    paths: dict = {}
    for key, value in raw.items():
        if key in _NESTED_KEYS:
            if not isinstance(value, dict):
                raise UsageError(f"config key {key!r} must be an object")
            for sub, subval in value.items():
                if sub not in _NESTED_KEYS[key]:
                    raise UsageError(f"unknown config key {key}.{sub}")
                name = _NESTED_KEYS[key][sub]
                flat[name] = _checked(f"{key}.{sub}", subval, _FIELD_TYPES[name])
        elif key in _PATH_KEYS:
            paths[key] = _checked(key, value, str)
        elif key in _FIELD_TYPES:
            flat[key] = _checked(key, value, _FIELD_TYPES[key])
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
