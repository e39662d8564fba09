"""Run configuration: a flat JSON object, range-checked, typo-rejecting.

Unknown keys are errors, every violation is reported in one pass, and
the canonical form of the effective config hashes into checkpoints and
metrics files for provenance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

from .generate import SAMPLE_MODES, SamplingPolicy
from .model import DESK, ModelConfig
from .style import STYLE_DIMS
from .text import TITLE_LEN
from .train import OPTIMIZERS, TrainConfig

NEWS_SECTIONS = [
    "Military", "Law and Justice", "Health and Education", "World Economy",
    "Israeli Economy", "General", "Politics", "Soccer", "Palestinians",
    "Sex", "Sex and relationships",
]


class ConfigValidationError(ValueError):
    """Carries every violation found, one per line."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid config:\n" + "\n".join(f"  - {p}" for p in problems))


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# key -> (default, checker, description); defaults come from the code that uses them.
_TRAIN, _SAMPLE = TrainConfig(), SamplingPolicy()
_SCHEMA: dict = {
    "corpus": (None, lambda v: v is None or isinstance(v, str), "string path"),
    "vocab": (None, lambda v: v is None or isinstance(v, str), "string path"),
    "checkpoint": (None, lambda v: v is None or isinstance(v, str), "string path"),
    "init_from": (None, lambda v: v is None or isinstance(v, str), "string path"),
    "out_dir": ("out", lambda v: isinstance(v, str), "string path"),
    "n_layers": (DESK["n_layers"], lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "n_heads": (DESK["n_heads"], lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "d_model": (DESK["d_model"], lambda v: _is_int(v) and v >= 2, "integer >= 2"),
    "d_ff": (DESK["d_ff"], lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "max_seq": (DESK["max_seq"], lambda v: _is_int(v) and v >= 2, "integer >= 2"),
    "title_len": (TITLE_LEN, lambda v: _is_int(v) and v >= 4, "integer >= 4"),
    "n_sections": (DESK["n_sections"], lambda v: _is_int(v) and v >= 2, "integer >= 2"),
    "style_mode": ("minmax2", lambda v: v in tuple(STYLE_DIMS), "one of " + ", ".join(STYLE_DIMS)),
    "dropout": (ModelConfig.dropout_rate, lambda v: _is_num(v) and 0.0 <= v < 1.0,
                "number in [0, 1)"),
    "optimizer": (_TRAIN.optimizer, lambda v: v in OPTIMIZERS, " or ".join(OPTIMIZERS)),
    "learning_rate": (_TRAIN.learning_rate, lambda v: _is_num(v) and v > 0, "positive number"),
    "batch_size": (_TRAIN.batch_size, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "epochs": (_TRAIN.epochs, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "split_ratio": (_TRAIN.split_ratio, lambda v: _is_num(v) and 0.0 < v < 1.0,
                    "number in (0, 1)"),
    "seed": (_TRAIN.seed, _is_int, "integer"),
    "weight_decay": (_TRAIN.weight_decay, lambda v: _is_num(v) and v >= 0, "nonnegative number"),
    "grad_clip_norm": (_TRAIN.grad_clip_norm, lambda v: v is None or (_is_num(v) and v > 0),
                       "positive number or null"),
    "early_stop_patience": (_TRAIN.early_stop_patience,
                            lambda v: v is None or (_is_int(v) and v >= 1),
                            "integer >= 1 or null"),
    "freeze_backbone": (False, lambda v: isinstance(v, bool), "boolean"),
    "sample_mode": (_SAMPLE.mode, lambda v: v in SAMPLE_MODES,
                    "one of " + ", ".join(SAMPLE_MODES)),
    "temperature": (_SAMPLE.temperature, lambda v: _is_num(v) and v > 0, "positive number"),
    "top_k": (_SAMPLE.k, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "sample_seed": (_SAMPLE.seed, lambda v: v is None or _is_int(v), "integer or null"),
    "knn": (15, lambda v: _is_int(v) and v >= 2, "integer >= 2"),
    "layout_epochs": (200, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "projection_seed": (0, _is_int, "integer"),
    "section_names": (None, lambda v: v is None or (isinstance(v, list)
                      and all(isinstance(s, str) for s in v)), "list of strings"),
}


@dataclass
class RunConfig:
    values: dict

    def __getattr__(self, key: str):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None

    def model_config(self, vocab_size: int, head_type: str) -> ModelConfig:
        v = self.values
        return ModelConfig(
            n_layers=v["n_layers"], n_heads=v["n_heads"], d_model=v["d_model"],
            d_ff=v["d_ff"],
            max_seq=v["title_len"] if head_type == "classifier" else v["max_seq"],
            vocab_size=vocab_size, n_sections=v["n_sections"],
            style_mode="none" if head_type == "classifier" else v["style_mode"],
            head_type=head_type, dropout_rate=v["dropout"])

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: self.values[f.name] for f in fields(TrainConfig)})

    def sampling_policy(self) -> SamplingPolicy:
        v = self.values
        return SamplingPolicy(mode=v["sample_mode"], temperature=v["temperature"],
                              k=v["top_k"], seed=v["sample_seed"])

    def hash(self) -> str:
        canon = json.dumps(self.values, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def validate_config(raw: str, overrides: dict | None = None) -> RunConfig:
    """Parse and range-check a flat JSON config; all violations reported at once."""
    problems: list[str] = []
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigValidationError([f"not valid JSON: {exc.msg} (line {exc.lineno})"])
    if not isinstance(obj, dict):
        raise ConfigValidationError(["config must be a flat JSON object"])
    if overrides:
        obj.update(overrides)
    for key in obj:
        if key not in _SCHEMA:
            problems.append(f"unknown key {key!r}")
    values: dict = {}
    for key, (default, check, desc) in _SCHEMA.items():
        v = obj.get(key, default)
        if key in obj and not check(v):
            problems.append(f"{key}: expected {desc}, got {v!r}")
        values[key] = v
    if not problems:
        if values["d_model"] % values["n_heads"] != 0:
            problems.append("d_model must be divisible by n_heads")
        names = values["section_names"]
        if names is None:
            n = values["n_sections"]
            values["section_names"] = (NEWS_SECTIONS[:n] if n <= len(NEWS_SECTIONS)
                                       else [f"section-{i}" for i in range(n)])
        elif len(names) != values["n_sections"]:
            problems.append(
                f"section_names has {len(names)} entries but n_sections is "
                f"{values['n_sections']}")
    if problems:
        raise ConfigValidationError(problems)
    return RunConfig(values)


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigValidationError([f"config file not found: {p}"])
    return validate_config(p.read_text(encoding="utf-8"), overrides)


def require_paths(cfg: RunConfig, *keys: str) -> None:
    """Existence check for the input paths a subcommand is about to read."""
    problems = []
    for key in keys:
        v = cfg.values.get(key)
        if v is None:
            problems.append(f"{key}: required path missing from config")
        elif not Path(v).exists():
            problems.append(f"{key}: path does not exist: {v}")
    if problems:
        raise ConfigValidationError(problems)
