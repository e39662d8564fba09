"""One encoder-block transformer backbone under two heads.

`backbone` computes the hidden state. The generator runs it causal-masked
under a vocab-sized head; the classifier runs it unmasked (pads
attention-masked out) under a section head read at the last non-pad
position. Pre-norm residual ordering throughout.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import text
from .style import (
    LEARNED_HIDDEN, CorpusStats, StyleSpec, fuse_embedding, learned_style, minmax_style,
    style_dim,
)
from .tensor import (
    Tensor, add, concat_cols, dropout, embedding, gelu, layer_norm, matmul,
    reshape, scale, slice_cols, slice_rows, softmax, transpose,
)

NEG_INF = float("-inf")


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
    def desk_scale(cls, vocab_size: int, n_sections: int = 4, **kw) -> "ModelConfig":
        base = dict(n_layers=2, n_heads=4, d_model=64, d_ff=256, max_seq=64)
        base.update(kw)
        return cls(vocab_size=vocab_size, n_sections=n_sections, **base)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


def _trunc_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    return np.clip(rng.standard_normal(shape) * std, -2.0 * std, 2.0 * std).astype(dtype)


def init_params(config: ModelConfig, seed: int = 0,
                dtype=np.float32, zero_head: bool = True) -> dict[str, Tensor]:
    """Fresh parameter dict in declaration order.

    Weights are truncated normal (std 0.02), biases and layer-norm shifts
    zero, gains one. Heads start zero ("blank") unless zero_head is off.
    """
    rng = np.random.default_rng(seed)
    std = 0.02
    p: dict[str, Tensor] = {}

    def param(name: str, arr: np.ndarray) -> None:
        p[name] = Tensor(arr, requires_grad=True)

    param("tok_emb", _trunc_normal(rng, (config.vocab_size, config.token_dim), std, dtype))
    param("pos_emb", _trunc_normal(rng, (config.max_seq, config.token_dim), std, dtype))
    if config.style_mode == "learned10":
        s_in, s_out = config.n_sections + 1, style_dim("learned10")
        param("style.w1", _trunc_normal(rng, (s_in, LEARNED_HIDDEN), std, dtype))
        param("style.b1", np.zeros(LEARNED_HIDDEN, dtype=dtype))
        param("style.w2", _trunc_normal(rng, (LEARNED_HIDDEN, s_out), std, dtype))
        param("style.b2", np.zeros(s_out, dtype=dtype))
    d, f = config.d_model, config.d_ff
    for i in range(config.n_layers):
        pre = f"layer{i}."
        for w in ("wq", "wk", "wv", "wo"):
            param(pre + "attn." + w, _trunc_normal(rng, (d, d), std, dtype))
        param(pre + "ln1.g", np.ones(d, dtype=dtype))
        param(pre + "ln1.b", np.zeros(d, dtype=dtype))
        param(pre + "ln2.g", np.ones(d, dtype=dtype))
        param(pre + "ln2.b", np.zeros(d, dtype=dtype))
        param(pre + "ffn.w1", _trunc_normal(rng, (d, f), std, dtype))
        param(pre + "ffn.b1", np.zeros(f, dtype=dtype))
        param(pre + "ffn.w2", _trunc_normal(rng, (f, d), std, dtype))
        param(pre + "ffn.b2", np.zeros(d, dtype=dtype))
    param("ln_f.g", np.ones(d, dtype=dtype))
    param("ln_f.b", np.zeros(d, dtype=dtype))
    if zero_head:
        param("head.w", np.zeros((d, config.head_width), dtype=dtype))
    else:
        param("head.w", _trunc_normal(rng, (d, config.head_width), std, dtype))
    param("head.b", np.zeros(config.head_width, dtype=dtype))
    return p


# -- masks ----------------------------------------------------------------------


def causal_mask(n: int) -> np.ndarray:
    """[n, n] additive mask: 0 where j <= i, -inf above the diagonal."""
    if n < 1:
        raise ValueError("causal_mask: n must be >= 1")
    m = np.zeros((n, n), dtype=np.float32)
    m[np.triu_indices(n, k=1)] = NEG_INF
    return m


def pad_mask(ids: Sequence[int]) -> np.ndarray | None:
    """[T, T] additive mask shutting off attention into [PAD] columns."""
    cols = np.asarray([NEG_INF if i == text.PAD else 0.0 for i in ids], dtype=np.float32)
    if not np.any(np.isneginf(cols)):
        return None
    return np.tile(cols, (len(ids), 1))


# -- forward pieces ---------------------------------------------------------------


def attention_head(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                   mask: np.ndarray | None = None) -> Tensor:
    """One attention head: softmax(q k^T / sqrt(d_head) + mask) v."""
    q = matmul(x, wq)
    k = matmul(x, wk)
    v = matmul(x, wv)
    d_head = wq.data.shape[1]
    scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(d_head))
    if mask is not None:
        scores = add(scores, Tensor(mask.astype(scores.data.dtype)))
    return matmul(softmax(scores, axis=-1), v)


def encoder_block(x: Tensor, params: dict[str, Tensor], prefix: str,
                  n_heads: int, mask: np.ndarray | None,
                  drop_rate: float = 0.0, rng: np.random.Generator | None = None) -> Tensor:
    """Pre-norm block: x + attn(LN(x)), then + FFN(LN(.))."""
    d = x.data.shape[1]
    d_head = d // n_heads

    normed = layer_norm(x, params[prefix + "ln1.g"], params[prefix + "ln1.b"])
    heads = []
    for h in range(n_heads):
        lo, hi = h * d_head, (h + 1) * d_head
        heads.append(attention_head(
            normed,
            slice_cols(params[prefix + "attn.wq"], lo, hi),
            slice_cols(params[prefix + "attn.wk"], lo, hi),
            slice_cols(params[prefix + "attn.wv"], lo, hi),
            mask,
        ))
    attn_out = matmul(concat_cols(heads), params[prefix + "attn.wo"])
    x = add(x, dropout(attn_out, drop_rate, rng))

    normed = layer_norm(x, params[prefix + "ln2.g"], params[prefix + "ln2.b"])
    ff = matmul(gelu(add(matmul(normed, params[prefix + "ffn.w1"]), params[prefix + "ffn.b1"])),
                params[prefix + "ffn.w2"])
    return add(x, dropout(add(ff, params[prefix + "ffn.b2"]), drop_rate, rng))


def _style_vector(params: dict[str, Tensor], config: ModelConfig,
                  spec: StyleSpec | None, stats: CorpusStats | None):
    if config.style_mode == "none":
        return None
    if spec is None or stats is None:
        raise ConfigError(f"style mode {config.style_mode} needs a StyleSpec and CorpusStats")
    if config.style_mode == "minmax2":
        return minmax_style(spec, stats)
    return learned_style(spec, stats, params["style.w1"], params["style.b1"],
                         params["style.w2"], params["style.b2"])


def backbone(params: dict[str, Tensor], config: ModelConfig, ids: Sequence[int],
             mask: np.ndarray | None, style: Tensor | np.ndarray | None,
             train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Hidden state [T, d_model] shared by both heads.

    Token plus position embeddings, fused with the style vector, input
    dropout, the encoder blocks under `mask`, then the final layer norm.
    """
    drop = config.dropout_rate if train else 0.0
    tok = embedding(params["tok_emb"], ids)
    pos = slice_rows(params["pos_emb"], 0, len(ids))
    h = dropout(fuse_embedding(add(tok, pos), style, config.d_model), drop, rng)
    for i in range(config.n_layers):
        h = encoder_block(h, params, f"layer{i}.", config.n_heads, mask, drop, rng)
    return layer_norm(h, params["ln_f.g"], params["ln_f.b"])


def _check_length(config: ModelConfig, ids: Sequence[int]) -> None:
    if not 1 <= len(ids) <= config.max_seq:
        raise ValueError(f"sequence length {len(ids)} outside [1, {config.max_seq}]")


def lm_forward(params: dict[str, Tensor], config: ModelConfig, ids: Sequence[int],
               spec: StyleSpec | None = None, stats: CorpusStats | None = None,
               train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Causal logits [T, vocab_size]; logits[i] depends only on ids[..i] and style."""
    if config.head_type != "lm":
        raise ConfigError("lm_forward on a classifier-headed model")
    _check_length(config, ids)
    style = _style_vector(params, config, spec, stats)
    h = backbone(params, config, ids, causal_mask(len(ids)), style, train, rng)
    return add(matmul(h, params["head.w"]), params["head.b"])


def _loaded_position(ids: Sequence[int]) -> int:
    for i in range(len(ids) - 1, -1, -1):
        if ids[i] != text.PAD:
            return i
    raise ValueError("input is all [PAD]")


def _clf_hidden(params: dict[str, Tensor], config: ModelConfig, ids: Sequence[int],
                train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    if config.head_type != "classifier":
        raise ConfigError("classifier forward on an lm-headed model")
    _check_length(config, ids)
    loaded = _loaded_position(ids)
    h = backbone(params, config, ids, pad_mask(ids), None, train, rng)
    return slice_rows(h, loaded, loaded + 1)


def clf_forward(params: dict[str, Tensor], config: ModelConfig, ids: Sequence[int],
                train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Section logits [n_sections] read at the last non-pad position."""
    hidden = _clf_hidden(params, config, ids, train, rng)
    logits = add(matmul(hidden, params["head.w"]), params["head.b"])
    return reshape(logits, (config.n_sections,))


def extract_latent(params: dict[str, Tensor], config: ModelConfig,
                   ids: Sequence[int]) -> Tensor:
    """Hidden state at the loaded token, before the classifier head."""
    return reshape(_clf_hidden(params, config, ids), (config.d_model,))


def convert_to_classifier(params: dict[str, Tensor], config: ModelConfig,
                          n_sections: int, max_seq: int = text.TITLE_LEN) -> tuple[dict[str, Tensor], ModelConfig]:
    """Swap the lm head for a blank section head, keeping the backbone.

    Only style-free models convert: a styled backbone's token width
    differs from d_model and cannot serve the unconditioned classifier.
    """
    if config.style_mode != "none":
        raise ConfigError("cannot convert a styled lm to a classifier; retrain with style none")
    new_seq = min(max_seq, config.max_seq)
    new_cfg = ModelConfig(**{**config.to_dict(), "head_type": "classifier",
                             "n_sections": n_sections, "max_seq": new_seq})
    out: dict[str, Tensor] = {}
    for name, t in params.items():
        if name.startswith("head."):
            continue
        data = t.data[:new_seq].copy() if name == "pos_emb" else t.data.copy()
        out[name] = Tensor(data, requires_grad=True)
    dtype = params["tok_emb"].data.dtype
    out["head.w"] = Tensor(np.zeros((config.d_model, n_sections), dtype=dtype), requires_grad=True)
    out["head.b"] = Tensor(np.zeros(n_sections, dtype=dtype), requires_grad=True)
    return out, new_cfg
