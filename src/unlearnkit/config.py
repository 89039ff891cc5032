"""Flat run configuration: one key=value namespace for training + unlearning.

A config file is plain ``key=value`` lines; CLI flags override file values.
Hashes over the resolved config identify artifacts, so identical settings
always map to the same checkpoint or run directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .data import SynthSpec, format_data_name, parse_data_name
from .errors import ConfigError
from .fileio import read_json
from .nn import parse_backbone
from .optim import OPTIMIZERS


@dataclass
class UnlearnConfig:
    # what to unlearn, from which model, on which data
    unlearn_method: str = "rand_label"
    data_name: str = "gaussian_blobs:c3:s125:d8:noise0.1"
    backbone: str = "mlp:32,32"
    del_ratio: int = 5
    seed: int = 0
    # original training recipe (also the retraining-budget reference)
    train_epochs: int = 70
    train_learning_rate: float = 0.01
    train_batch_size: int = 32
    # unlearning loop
    epochs: int = 15
    learning_rate: float = 0.01
    batch_size: int = 32
    optimizer: str = "adam"
    # method-specific knobs
    temperature: float = 1.0
    bad_teacher_seed: int = 97
    scrub_max_steps: int = 3
    scrub_min_steps: int = 6
    salun_sparsity: float = 0.5
    l1_lambda: float = 0.0005
    # curriculum weighting
    curriculum: bool = False
    curriculum_lambda: float = 1.0
    curriculum_decay: float = 0.9
    # parameter-efficient fine-tuning (rank 0 disables)
    adapter_rank: int = 0
    adapter_layer: int = 0
    adapter_scale: float = 1.0
    # wall-clock budget; None means unlimited
    budget_seconds: float | None = None

    def __post_init__(self):
        # Only the bool key takes a bool and only the str keys take text.
        # from_mapping passes a JSON value that is not text through as it is,
        # and a bool is an int to isinstance.
        for name, ftype in _FIELD_TYPES.items():
            value = getattr(self, name)
            if (isinstance(value, bool) != (ftype == "bool")
                    or isinstance(value, str) != (ftype == "str")):
                raise ConfigError(f"{name} must be of type {ftype}, got {value!r}")
        for name, least in _INT_FLOORS.items():
            value = getattr(self, name)
            if not isinstance(value, int) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        for name, (rule, holds) in _FLOAT_RULES.items():
            value = getattr(self, name)
            if value is None and name == "budget_seconds":
                continue  # no limit
            if not isinstance(value, (int, float)) or not holds(value):
                raise ConfigError(f"{name} must be {rule}, got {value!r}")
            # Not math.isfinite: it overflows on an int too large for a float.
            if not -sys.float_info.max <= value <= sys.float_info.max:
                raise ConfigError(f"{name} must be finite, got {value!r}")
            setattr(self, name, float(value))  # one form, so 1 and 1.0 hash alike
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be {' or '.join(OPTIMIZERS)}, "
                              f"got {self.optimizer!r}")
        hidden, activation = parse_backbone(self.backbone)
        # The spelling the parse implies, so every spelling of one model hashes alike;
        # "mlp:," keeps its comma, since "mlp:" means the default hidden layer.
        self.backbone = "mlp:" + (",".join(map(str, hidden)) or ",") + (
            "" if activation == "relu" else f":{activation}")
        if self.adapter_rank > 0:
            spec = self.data_spec()
            dims = [spec.dim, *hidden, spec.num_classes]  # layer i maps dims[i] to dims[i + 1]
            layer = self.adapter_layer
            if layer >= len(dims) - 1:
                raise ConfigError(f"adapter_layer must be < {len(dims) - 1}, the layer count of "
                                  f"backbone {self.backbone!r}, got {layer}")
            limit = min(dims[layer], dims[layer + 1])
            if self.adapter_rank > limit:
                raise ConfigError(f"adapter_rank must be <= {limit}, the smaller dimension of "
                                  f"layer {layer}, got {self.adapter_rank}")

    def data_spec(self) -> SynthSpec:
        """Dataset spec with the run seed substituted unless the name pins one."""
        spec = parse_data_name(self.data_name)
        if ":seed" not in self.data_name:
            spec = dataclasses.replace(spec, seed=self.seed)
        return spec

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def resolved_dict(self) -> dict:
        d = self.to_dict()
        d["data_name"] = format_data_name(self.data_spec())
        return d

    def train_dict(self) -> dict:
        """The subset of keys that determine the original model checkpoint."""
        d = self.resolved_dict()
        return {k: d[k] for k in TRAIN_KEYS}

    @classmethod
    def from_mapping(cls, values: dict) -> "UnlearnConfig":
        kwargs = {}
        for key, raw in values.items():
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}; valid keys: "
                                  + ", ".join(sorted(_FIELD_TYPES)))
            try:  # text goes through the key's parser; __post_init__ checks any other value
                kwargs[key] = (_PARSERS[_FIELD_TYPES[key]](raw.strip())
                               if isinstance(raw, str) else raw)
            except ValueError as exc:
                raise ConfigError(f"bad value {raw!r} for config key {key!r}") from exc
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "UnlearnConfig":
        """The config a run saved as ``config.json``; a malformed one is a ConfigError naming it."""
        values = read_json(path, "run file")
        try:
            return cls.from_mapping(values)
        except ConfigError as exc:
            raise ConfigError(f"bad run file {path}: {exc}") from exc


# The least value of each integer key the toolkit can run: a batch holds a
# row, zero epochs (or passes) is a run that only snapshots, and adapter
# rank 0 is no adapter.
_INT_FLOORS = {"seed": 0, "bad_teacher_seed": 0, "train_epochs": 0, "epochs": 0,
               "train_batch_size": 1, "batch_size": 1, "scrub_max_steps": 0,
               "scrub_min_steps": 0, "adapter_rank": 0, "adapter_layer": 0}

# The rule each float key must meet, besides being finite; budget_seconds may
# also be None.
_FLOAT_RULES = {
    "train_learning_rate": ("> 0", lambda v: v > 0),
    "learning_rate": ("> 0", lambda v: v > 0),
    "temperature": ("> 0", lambda v: v > 0),
    "salun_sparsity": ("in (0, 1]", lambda v: 0 < v <= 1),
    "l1_lambda": (">= 0", lambda v: v >= 0),
    "curriculum_lambda": ("> 0", lambda v: v > 0),
    "curriculum_decay": ("in [0, 1)", lambda v: 0 <= v < 1),
    "adapter_scale": ("a number", lambda v: True),
    "budget_seconds": (">= 0 or None", lambda v: v >= 0),
}


TRAIN_KEYS = ("data_name", "backbone", "seed", "train_epochs",
              "train_learning_rate", "train_batch_size", "optimizer")

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(UnlearnConfig)}


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


# How from_mapping reads a key's text, by the key's type.
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str,
            "float | None": lambda text: (None if text.lower() in ("", "none", "null")
                                          else float(text))}


def load_config_file(path) -> dict[str, str]:
    """Read a flat key=value file; '#' starts a comment, blank lines ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def config_hash(config: UnlearnConfig) -> str:
    """Identity of a full unlearning run."""
    d = config.resolved_dict()
    d.pop("budget_seconds")  # a wall-clock limit does not change the computation
    return _digest(d)


def train_hash(config: UnlearnConfig) -> str:
    """Identity of the original-model checkpoint this run unlearns from."""
    return _digest(config.train_dict())
