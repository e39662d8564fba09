"""One encoder-block transformer backbone under two heads.

`backbone` computes the hidden state of a [B, T] id batch as [B*T, d]
rows. The generator runs it causal-masked under a vocab-sized head; the
classifier runs it unmasked (pads attention-masked out) under a section
head read at each sequence's last non-pad position. Pre-norm residual
ordering throughout. The forwards take one id sequence or a [B, T] batch;
one sequence is a batch of one with the batch axis dropped from the result.
At inference the lm forward can take a `KVCache`: it then runs only the
new positions of each sequence, attending over the keys and values the
cache holds for the earlier ones, which is how `generate` decodes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import text
from .style import (
    LEARNED_HIDDEN, CorpusStats, StyleSpec, fuse_embedding, learned_style, minmax_style,
    style_dim,
)
from .tensor import Tensor, add, attention, dropout, embedding, gelu, layer_norm, matmul, reshape

NEG_INF = float("-inf")

# Desk-scale sizes: the run config's defaults and ModelConfig.desk_scale's base.
DESK = dict(n_layers=2, n_heads=4, d_model=64, d_ff=256, max_seq=64, n_sections=4)


class ConfigError(ValueError):
    pass


@dataclass
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    d_ff: int
    max_seq: int
    vocab_size: int
    n_sections: int
    style_mode: str = "none"
    head_type: str = "lm"
    dropout_rate: float = 0.1

    def __post_init__(self) -> None:
        sizes = (self.n_layers, self.n_heads, self.d_model, self.d_ff, self.max_seq,
                 self.vocab_size, self.n_sections)
        if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in sizes):
            raise ConfigError(f"model sizes must be integers >= 1, got {sizes}")
        rate = self.dropout_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout_rate must be a number in [0, 1), got {rate!r}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.head_type not in ("lm", "classifier"):
            raise ConfigError(f"unknown head_type {self.head_type!r}")
        if style_dim(self.style_mode) >= self.d_model:
            raise ConfigError("style vector would leave no room for token embedding")
        if self.head_type == "classifier" and self.style_mode != "none":
            raise ConfigError("classifier runs without style conditioning")

    @property
    def token_dim(self) -> int:
        return self.d_model - style_dim(self.style_mode)

    @property
    def head_width(self) -> int:
        return self.vocab_size if self.head_type == "lm" else self.n_sections

    @classmethod
    def full_scale(cls, vocab_size: int, n_sections: int = 11, **kw) -> "ModelConfig":
        base = dict(n_layers=12, n_heads=12, d_model=768, d_ff=3072, max_seq=512)
        base.update(kw)
        return cls(vocab_size=vocab_size, n_sections=n_sections, **base)

    @classmethod
    def desk_scale(cls, vocab_size: int, **kw) -> "ModelConfig":
        return cls(vocab_size=vocab_size, **{**DESK, **kw})


def _trunc_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    return np.clip(rng.standard_normal(shape) * std, -2.0 * std, 2.0 * std).astype(dtype)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in declaration (and checkpoint) order."""
    d, f, w, t = config.d_model, config.d_ff, config.head_width, config.token_dim
    shapes = {"tok_emb": (config.vocab_size, t), "pos_emb": (config.max_seq, t)}
    if config.style_mode == "learned10":
        h, s = LEARNED_HIDDEN, style_dim("learned10")
        shapes |= {"style.w1": (config.n_sections + 1, h), "style.b1": (h,),
                   "style.w2": (h, s), "style.b2": (s,)}
    for i in range(config.n_layers):
        shapes |= {f"layer{i}.{name}": shape for name, shape in (
            ("attn.wq", (d, d)), ("attn.wk", (d, d)), ("attn.wv", (d, d)), ("attn.wo", (d, d)),
            ("ln1.g", (d,)), ("ln1.b", (d,)), ("ln2.g", (d,)), ("ln2.b", (d,)),
            ("ffn.w1", (d, f)), ("ffn.b1", (f,)), ("ffn.w2", (f, d)), ("ffn.b2", (d,)))}
    return shapes | {"ln_f.g": (d,), "ln_f.b": (d,), "head.w": (d, w), "head.b": (w,)}


def init_params(config: ModelConfig, seed: int = 0,
                dtype=np.float32, zero_head: bool = True) -> dict[str, Tensor]:
    """Fresh parameter dict in declaration order, as trainable leaves for hand-written loops.

    Weights are truncated normal (std 0.02), biases and layer-norm shifts
    zero, gains one. Heads start zero ("blank") unless zero_head is off.
    """
    rng = np.random.default_rng(seed)
    p: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 1:
            arr = (np.ones if name.endswith(".g") else np.zeros)(shape, dtype=dtype)
        elif name == "head.w" and zero_head:
            arr = np.zeros(shape, dtype=dtype)
        else:
            arr = _trunc_normal(rng, shape, 0.02, dtype)
        p[name] = Tensor(arr, requires_grad=True)
    return p


# -- masks ----------------------------------------------------------------------


def causal_mask(n: int, start: int = 0) -> np.ndarray:
    """[n, start + n] additive mask of query positions start..start+n-1 over keys 0..start+n-1.

    0 where key j <= query position i, -inf after it; start 0 gives the
    square mask, -inf above the diagonal.
    """
    if n < 1 or start < 0:
        raise ValueError(f"causal_mask: need n >= 1 and start >= 0, got n={n}, start={start}")
    keys = np.arange(start + n)
    return np.where(keys[None, :] > keys[start:, None], NEG_INF, 0.0).astype(np.float32)


def pad_mask(ids: np.ndarray) -> np.ndarray:
    """[B, 1, T] additive mask shutting off attention into [PAD] columns of a [B, T] batch."""
    return np.where(ids == text.PAD, NEG_INF, 0.0).astype(np.float32)[:, None, :]


# -- key/value cache --------------------------------------------------------------


class KVCache:
    """Keys and values of the positions already run, for inference only.

    Each block (by its parameter prefix) owns a [B, max_seq, d_model] K and
    V array, allocated by its first forward with that forward's batch size
    and dtype; positions [0, length) of them are filled. A forward over t
    new positions writes rows length..length+t-1 of every block, then
    `backbone` advances length by t.
    """

    def __init__(self, config: ModelConfig):
        self.kv: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.max_seq, self.length = config.max_seq, 0

    @property
    def batch(self) -> int | None:
        """Sequences the cache holds, or None before its first forward."""
        return next(iter(self.kv.values()))[0].shape[0] if self.kv else None

    def extend(self, prefix: str, k: Tensor, v: Tensor, stop: int) -> tuple[Tensor, Tensor]:
        """Store one block's new [B*t, d] key and value rows as positions length..stop-1.

        Returns every sequence's rows 0..stop-1 as [B*stop, d] constants.
        """
        rows, d = k.data.shape
        b = rows // (stop - self.length)
        if prefix not in self.kv:
            self.kv[prefix] = tuple(np.zeros((b, self.max_seq, d), k.data.dtype) for _ in "kv")
        keys, values = self.kv[prefix]
        keys[:, self.length:stop] = k.data.reshape(b, -1, d)
        values[:, self.length:stop] = v.data.reshape(b, -1, d)
        return Tensor(keys[:, :stop].reshape(-1, d)), Tensor(values[:, :stop].reshape(-1, d))


# -- forward pieces ---------------------------------------------------------------


def encoder_block(x: Tensor, params: dict[str, Tensor], prefix: str,
                  n_heads: int, mask: np.ndarray,
                  drop_rate: float = 0.0, rng: np.random.Generator | None = None,
                  cache: KVCache | None = None) -> Tensor:
    """Pre-norm block over [B*T, d] rows: x + attn(LN(x)), then + FFN(LN(.)).

    `mask` is the [B or 1, T or 1, Tk] attention mask. Without a cache
    Tk is T; with one, the rows are positions cache.length.., the block
    fills the cache up to Tk = cache.length + T keys and attends over them.
    """
    normed = layer_norm(x, params[prefix + "ln1.g"], params[prefix + "ln1.b"])
    q, k, v = (matmul(normed, params[prefix + w]) for w in ("attn.wq", "attn.wk", "attn.wv"))
    if cache is not None:
        k, v = cache.extend(prefix, k, v, mask.shape[-1])
    heads = attention(q, k, v, n_heads, mask)
    x = add(x, dropout(matmul(heads, params[prefix + "attn.wo"]), drop_rate, rng))

    normed = layer_norm(x, params[prefix + "ln2.g"], params[prefix + "ln2.b"])
    ff = matmul(gelu(add(matmul(normed, params[prefix + "ffn.w1"]), params[prefix + "ffn.b1"])),
                params[prefix + "ffn.w2"])
    return add(x, dropout(add(ff, params[prefix + "ffn.b2"]), drop_rate, rng))


def _style_rows(params: dict[str, Tensor], config: ModelConfig,
                specs: Sequence[StyleSpec | None] | None,
                stats: CorpusStats | None) -> Tensor | None:
    if config.style_mode == "none":
        return None
    if specs is None or stats is None or any(s is None for s in specs):
        raise ConfigError(f"style mode {config.style_mode} needs a StyleSpec and CorpusStats")
    if config.style_mode == "minmax2":
        return Tensor(minmax_style(specs, stats))
    return learned_style(specs, stats, params["style.w1"], params["style.b1"],
                         params["style.w2"], params["style.b2"])


def backbone(params: dict[str, Tensor], config: ModelConfig, ids: np.ndarray,
             mask: np.ndarray, style: Tensor | None,
             train: bool = False, rng: np.random.Generator | None = None,
             cache: KVCache | None = None) -> Tensor:
    """Hidden rows [B*T, d_model] of a [B, T] id batch, shared by both heads.

    Token plus position embeddings, fused with each sequence's style row,
    input dropout, the encoder blocks under `mask`, then the final layer norm.
    With a cache the ids continue its sequences: positions start at
    cache.length, and the blocks attend over the cached keys too.
    """
    b, t = ids.shape
    start = 0
    if cache is not None:
        if train:
            raise ValueError("a KV cache is for inference only; training runs without one")
        if cache.batch not in (None, b) or cache.length + t > cache.max_seq:
            raise ValueError(f"{b} x {t} ids do not fit a cache of {cache.batch} sequences "
                             f"holding {cache.length} of {cache.max_seq} positions")
        start = cache.length
    drop = config.dropout_rate if train else 0.0
    tok = embedding(params["tok_emb"], ids.reshape(-1))
    pos = embedding(params["pos_emb"], np.tile(np.arange(start, start + t), b))
    h = dropout(fuse_embedding(add(tok, pos), style, config.d_model), drop, rng)
    for i in range(config.n_layers):
        h = encoder_block(h, params, f"layer{i}.", config.n_heads, mask, drop, rng, cache)
    if cache is not None:
        cache.length += t
    return layer_norm(h, params["ln_f.g"], params["ln_f.b"])


def _batch(config: ModelConfig, ids) -> tuple[np.ndarray, bool]:
    """ids as a [B, T] array, and whether they were one sequence."""
    arr = np.asarray(ids, dtype=np.int64)
    batch = arr.reshape(1, -1) if arr.ndim == 1 else arr
    if batch.ndim != 2 or not 1 <= batch.shape[1] <= config.max_seq:
        raise ValueError(f"id batch of shape {batch.shape}: sequence length outside "
                         f"[1, {config.max_seq}]")
    return batch, arr.ndim == 1


def lm_forward(params: dict[str, Tensor], config: ModelConfig, ids,
               spec: StyleSpec | Sequence[StyleSpec] | None = None,
               stats: CorpusStats | None = None,
               train: bool = False, rng: np.random.Generator | None = None,
               cache: KVCache | None = None) -> Tensor:
    """Causal logits: [T, vocab_size] for one id sequence, [B*T, vocab_size] for a [B, T] batch.

    A batch takes one StyleSpec per sequence. logits[i] depends only on
    ids[..i] of its own sequence and that sequence's style. With a cache
    (inference only) the ids continue the sequences it holds, and it
    takes their keys and values in turn.
    """
    if config.head_type != "lm":
        raise ConfigError("lm_forward on a classifier-headed model")
    batch, single = _batch(config, ids)
    style = _style_rows(params, config, [spec] if single else spec, stats)
    start = 0 if cache is None else cache.length
    h = backbone(params, config, batch, causal_mask(batch.shape[1], start)[None], style, train,
                 rng, cache)
    return add(matmul(h, params["head.w"]), params["head.b"])


def _clf_hidden(params: dict[str, Tensor], config: ModelConfig, ids,
                train: bool = False, rng: np.random.Generator | None = None):
    """[B, d_model] hidden rows at each sequence's last non-pad position."""
    if config.head_type != "classifier":
        raise ConfigError("classifier forward on an lm-headed model")
    batch, single = _batch(config, ids)
    loaded = batch != text.PAD
    if not loaded.any(axis=1).all():
        raise ValueError("input is all [PAD]")
    b, t = batch.shape
    last = t - 1 - np.argmax(loaded[:, ::-1], axis=1)
    h = backbone(params, config, batch, pad_mask(batch), None, train, rng)
    return embedding(h, np.arange(b) * t + last), single


def clf_forward(params: dict[str, Tensor], config: ModelConfig, ids,
                train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Section logits read at the last non-pad position: [n_sections], or [B, n_sections]."""
    hidden, single = _clf_hidden(params, config, ids, train, rng)
    logits = add(matmul(hidden, params["head.w"]), params["head.b"])
    return reshape(logits, (config.n_sections,)) if single else logits


def extract_latent(params: dict[str, Tensor], config: ModelConfig, ids) -> Tensor:
    """Hidden state at the loaded token, before the classifier head: [d_model], or [B, d_model]."""
    hidden, single = _clf_hidden(params, config, ids)
    return reshape(hidden, (config.d_model,)) if single else hidden


def convert_to_classifier(params: dict[str, Tensor], config: ModelConfig,
                          n_sections: int, max_seq: int) -> tuple[dict[str, Tensor], ModelConfig]:
    """Swap the lm head for a blank section head, keeping the backbone, as constants.

    Only style-free models convert: a styled backbone's token width
    differs from d_model and cannot serve the unconditioned classifier.
    """
    if config.style_mode != "none":
        raise ConfigError("cannot convert a styled lm to a classifier; retrain with style none")
    new_seq = min(max_seq, config.max_seq)
    new_cfg = ModelConfig(**{**asdict(config), "head_type": "classifier",
                             "n_sections": n_sections, "max_seq": new_seq})
    out: dict[str, Tensor] = {}
    for name, t in params.items():
        if name.startswith("head."):
            continue
        data = t.data[:new_seq].copy() if name == "pos_emb" else t.data.copy()
        out[name] = Tensor(data)
    dtype = params["tok_emb"].data.dtype
    out["head.w"] = Tensor(np.zeros((config.d_model, n_sections), dtype=dtype))
    out["head.b"] = Tensor(np.zeros(n_sections, dtype=dtype))
    return out, new_cfg
