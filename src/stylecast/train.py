"""Optimizers, the epoch loop, and metrics for the generator and classifier.

Both trainers run one loop, `_fit`: deterministic shuffle/split, batch
loss graph, backward, global-norm clip, SGD or AdamW step, per-epoch
validation metrics, best-checkpoint retention, optional early stop.
A training batch is one forward over its [PAD]-right-padded ids; the
evaluators run one forward per EVAL_BATCH sequences.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import text
from .model import ModelConfig, clf_forward, lm_forward
from .style import CorpusStats, StyleSpec
from .tensor import Tensor, cross_entropy_mean, token_nll

# Sequences per forward in evaluate_lm, evaluate_accuracy and latent
# extraction: a whole held-out set at LINE_LEN would not fit in memory.
EVAL_BATCH = 16

# AdamW moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

OPTIMIZERS = ("sgd", "adamw")


class TrainError(ValueError):
    pass


@dataclass
class TrainConfig:
    optimizer: str = "adamw"
    learning_rate: float = 3e-4
    batch_size: int = 32
    epochs: int = 3
    split_ratio: float = 0.9
    seed: int = 0
    weight_decay: float = 0.01
    grad_clip_norm: float = 1.0
    early_stop_patience: int | None = 3

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise TrainError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 < self.split_ratio < 1.0:
            raise TrainError(f"split_ratio must lie in (0, 1), got {self.split_ratio}")
        if self.optimizer not in OPTIMIZERS:
            raise TrainError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class MetricsLog:
    """Per-epoch (epoch, split, metric, value) records."""

    rows: list[tuple[int, str, str, float]] = field(default_factory=list)

    def add(self, epoch: int, split: str, metric: str, value: float) -> None:
        self.rows.append((epoch, split, metric, float(value)))

    def series(self, split: str, metric: str) -> list[float]:
        return [v for e, s, m, v in self.rows if s == split and m == metric]

    def to_csv(self, config_hash: str) -> str:
        lines = [f"# config={config_hash}", "epoch,split,metric,value"]
        for e, s, m, v in self.rows:
            lines.append(f"{e},{s},{m},{v!r}")
        return "\n".join(lines) + "\n"


@dataclass
class LmSample:
    ids: list[int]
    spec: StyleSpec | None = None


@dataclass
class ClfSample:
    ids: list[int]
    label: int


def lm_samples_from_articles(articles, vocab, max_len: int, styled: bool = True) -> list[LmSample]:
    return [LmSample(text.format_article(a, vocab, max_len),
                     StyleSpec(a.label, a.release_time) if styled else None)
            for a in articles]


def clf_samples_from_articles(articles, vocab, max_len: int) -> list[ClfSample]:
    return [ClfSample(text.encode_title(a.main_title, vocab, max_len), a.label)
            for a in articles]


def corpus_stats(articles, n_sections: int) -> CorpusStats:
    times = [a.release_time for a in articles]
    return CorpusStats(n_sections=n_sections, t_min=min(times), t_max=max(times))


# -- optimizers -------------------------------------------------------------------


def sgd_step(params: dict[str, Tensor], lr: float) -> None:
    """p <- p - lr * g, elementwise."""
    for name, p in params.items():
        if p.grad is None:
            raise TrainError(f"sgd_step: parameter {name!r} has no gradient")
        p.data -= (lr * p.grad).astype(p.data.dtype)


class AdamWState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self) -> None:
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adamw_step(params: dict[str, Tensor], state: AdamWState, lr: float,
               weight_decay: float = 0.0) -> None:
    """Bias-corrected Adam update plus decoupled decay p <- p - lr*wd*p."""
    if state is None:
        raise TrainError("adamw_step: optimizer state is required")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        if p.grad is None:
            raise TrainError(f"adamw_step: parameter {name!r} has no gradient")
        g = p.grad
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if weight_decay:
            p.data -= (lr * weight_decay) * p.data
        p.data -= (lr * update).astype(p.data.dtype)


def clip_gradients(params: dict[str, Tensor], max_norm: float | None) -> float:
    """Scale all gradients so the global norm is at most max_norm; return the pre-clip norm."""
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = math.sqrt(sq)
    if max_norm is not None and norm > max_norm > 0.0:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


def zero_gradients(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def perplexity(mean_loss: float) -> float:
    """exp(mean cross-entropy per predicted token)."""
    if mean_loss < 0:
        raise TrainError(f"mean loss must be nonnegative, got {mean_loss}")
    return math.exp(mean_loss)


def _pad_batch(id_lists) -> np.ndarray:
    """Right-pad id sequences with [PAD] into one [B, T] array."""
    t = max(len(ids) for ids in id_lists)
    return np.array([list(ids) + [text.PAD] * (t - len(ids)) for ids in id_lists],
                    dtype=np.int64)


# -- language model ---------------------------------------------------------------


def _lm_batch(params: dict[str, Tensor], config: ModelConfig, batch: list[LmSample],
              stats: CorpusStats | None, train: bool = False,
              rng: np.random.Generator | None = None) -> tuple[Tensor, np.ndarray]:
    """Logits [B*T, V] of the padded batch, and next-token targets [B, T] ([PAD] at the end)."""
    ids = _pad_batch([s.ids for s in batch])
    targets = np.full_like(ids, text.PAD)
    targets[:, :-1] = ids[:, 1:]
    logits = lm_forward(params, config, ids, [s.spec for s in batch], stats,
                        train=train, rng=rng)
    return logits, targets


def lm_batch_loss(params: dict[str, Tensor], config: ModelConfig,
                  batch: list[LmSample], stats: CorpusStats | None,
                  train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Mean over the batch of per-sequence next-token cross-entropy, pads ignored."""
    logits, targets = _lm_batch(params, config, batch, stats, train, rng)
    return cross_entropy_mean(logits, targets, ignore_id=text.PAD)


def evaluate_lm(params: dict[str, Tensor], config: ModelConfig,
                samples: list[LmSample], stats: CorpusStats | None) -> tuple[float, float]:
    """Per-token mean loss over all non-pad targets, and its perplexity."""
    if not samples:
        raise TrainError("evaluate_lm: empty sample set")
    total, count = 0.0, 0
    for lo in range(0, len(samples), EVAL_BATCH):
        logits, targets = _lm_batch(params, config, samples[lo:lo + EVAL_BATCH], stats)
        keep = (targets != text.PAD).reshape(-1)
        per = token_nll(logits.data.astype(np.float64), targets.reshape(-1))
        total += float(per[keep].sum())
        count += int(keep.sum())
    if count == 0:
        raise TrainError("evaluate_lm: no non-pad targets")
    mean = total / count
    return mean, perplexity(mean)


def _optimizer_step(params: dict[str, Tensor], cfg: TrainConfig, state: AdamWState) -> None:
    if cfg.optimizer == "sgd":
        sgd_step(params, cfg.learning_rate)
    else:
        adamw_step(params, state, cfg.learning_rate, weight_decay=cfg.weight_decay)


def _snapshot(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {k: Tensor(v.data.copy()) for k, v in params.items()}


def _check_finite(params: dict[str, Tensor]) -> None:
    for name, p in params.items():
        if not np.all(np.isfinite(p.data)):
            raise TrainError(f"parameter {name!r} became non-finite during training")


def _fit(samples: list, params: dict[str, Tensor], cfg: TrainConfig, batch_loss, validate,
         trainable: dict[str, Tensor],
         max_steps: int | None = None) -> tuple[dict[str, Tensor], MetricsLog]:
    """The epoch loop both trainers share, and the only code that makes gradient leaves.

    Splits samples per cfg.split_ratio/seed; one rng under cfg.seed shuffles
    the epochs and draws dropout. The `trainable` params become leaves. Each
    step backpropagates batch_loss(step view, batch, rng) over the training
    split, the view holding every other param as a constant over the same
    array, then clips and steps the trainable `.data` in place. After each
    epoch validate(all-constant view, validation split) returns (score, [(metric, value)]);
    the metrics are logged under "val", the highest score keeps a constant
    snapshot of all params, and training stops once the score has not
    improved for early_stop_patience consecutive epochs (None disables)
    or after max_steps steps, which still validates the partial epoch.
    """
    train_set, val_set = text.split_shuffled(samples, cfg.split_ratio, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    for p in trainable.values():
        p.requires_grad = True
    step_view = {k: v if k in trainable else Tensor(v.data) for k, v in params.items()}
    val_view = {k: Tensor(v.data) for k, v in params.items()}
    state = AdamWState()
    log = MetricsLog()
    best = _snapshot(params)
    best_score = -math.inf
    since_best = 0
    steps = 0
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.monotonic()
        order = rng.permutation(len(train_set))
        epoch_losses = []
        for lo in range(0, len(train_set), cfg.batch_size):
            batch = [train_set[i] for i in order[lo:lo + cfg.batch_size]]
            zero_gradients(params)
            loss = batch_loss(step_view, batch, rng)
            loss.backward()
            clip_gradients(trainable, cfg.grad_clip_norm)
            _optimizer_step(trainable, cfg, state)
            _check_finite(params)
            epoch_losses.append(loss.item())
            steps += 1
            if max_steps is not None and steps >= max_steps:
                break
        score, metrics = validate(val_view, val_set)
        log.add(epoch, "train", "loss", float(np.mean(epoch_losses)))
        for metric, value in metrics:
            log.add(epoch, "val", metric, value)
        log.add(epoch, "train", "wall_time", time.monotonic() - t0)
        if score > best_score:
            best_score = score
            best = _snapshot(params)
            since_best = 0
        else:
            since_best += 1
            if cfg.early_stop_patience is not None and since_best >= cfg.early_stop_patience:
                break
        if max_steps is not None and steps >= max_steps:
            break
    return best, log


def train_lm(samples: list[LmSample], params: dict[str, Tensor], config: ModelConfig,
             cfg: TrainConfig, stats: CorpusStats | None = None,
             max_steps: int | None = None) -> tuple[dict[str, Tensor], MetricsLog]:
    """Teacher-forced next-char training with per-epoch validation metrics.

    Splits samples per cfg.split_ratio/seed, retains the best-validation
    parameters, and stops early once validation loss has not improved for
    early_stop_patience consecutive epochs (None disables).
    """
    if not samples:
        raise TrainError("train_lm: empty corpus")

    def validate(view: dict[str, Tensor], val: list[LmSample]):
        loss, ppl = evaluate_lm(view, config, val, stats)
        return -loss, [("loss", loss), ("perplexity", ppl)]

    return _fit(samples, params, cfg,
                lambda view, batch, rng: lm_batch_loss(view, config, batch, stats, train=True,
                                                       rng=rng),
                validate, params, max_steps)


# -- classifier -------------------------------------------------------------------


def clf_batch_loss(params: dict[str, Tensor], config: ModelConfig,
                   batch: list[ClfSample], train: bool = False,
                   rng: np.random.Generator | None = None) -> Tensor:
    logits = clf_forward(params, config, _pad_batch([s.ids for s in batch]),
                         train=train, rng=rng)
    return cross_entropy_mean(logits, [s.label for s in batch])


def evaluate_accuracy(params: dict[str, Tensor], config: ModelConfig,
                      samples: list[ClfSample]) -> tuple[float, np.ndarray]:
    """Argmax accuracy plus an S x S confusion matrix (rows = true label)."""
    if not samples:
        raise TrainError("evaluate_accuracy: empty sample set")
    ids = _pad_batch([s.ids for s in samples])
    preds = np.concatenate([clf_forward(params, config, ids[lo:lo + EVAL_BATCH]).data.argmax(1)
                            for lo in range(0, len(ids), EVAL_BATCH)])
    labels = np.array([s.label for s in samples], dtype=np.int64)
    s = config.n_sections
    confusion = np.bincount(labels * s + preds, minlength=s * s).reshape(s, s)
    return int((preds == labels).sum()) / len(samples), confusion


def fine_tune_classifier(samples: list[ClfSample], params: dict[str, Tensor],
                         config: ModelConfig, cfg: TrainConfig,
                         freeze_backbone: bool = False) -> tuple[dict[str, Tensor], MetricsLog]:
    """Cross-entropy fine-tuning over section labels; best validation accuracy kept."""
    if len({s.label for s in samples}) < 2:
        raise TrainError("classifier training needs at least 2 distinct labels")
    trainable = ({k: v for k, v in params.items() if k.startswith("head.")}
                 if freeze_backbone else params)

    def validate(view: dict[str, Tensor], val: list[ClfSample]):
        acc, _ = evaluate_accuracy(view, config, val)
        return acc, [("accuracy", acc)]

    return _fit(samples, params, cfg,
                lambda view, batch, rng: clf_batch_loss(view, config, batch, train=True, rng=rng),
                validate, trainable)
