"""Per-head, per-sample forward and losses: oracles for the batched code.

This is the transformer as it ran before batching: one graph per sample,
attention one head at a time over column slices of the weights, the
style vector tiled over the rows, and the classifier row found by a scan
for the last non-pad id. Tests compare the batched `stylecast` code
against it; nothing in the package imports it. It also holds the
elementwise product, full sum and softmax ops that only tests build
graphs with, and generation as it ran before the key/value cache: the
full forward re-run over the whole context for every new token.
"""

from __future__ import annotations

import math

import numpy as np

from stylecast import model, text
from stylecast.generate import TOKEN_LIMIT, sample_next
from stylecast.model import causal_mask
from stylecast.tensor import (
    NumericError, ShapeError, Tensor, _accumulate, add, concat_cols, cross_entropy_mean,
    dropout, embedding, gelu, layer_norm, matmul, reshape, scale, slice_rows, token_nll,
)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} do not match")
    out_data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return Tensor._node(out_data, (a, b), "mul", backward)


def tsum(a: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        _accumulate(a, np.full_like(a.data, g))

    return Tensor._node(np.asarray(a.data.sum(), dtype=a.data.dtype), (a,), "sum", backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along `axis`; rows sum to 1 within 1e-6."""
    if not np.all(np.isfinite(x.data) | np.isneginf(x.data)):
        raise NumericError("softmax: input contains nan or +inf")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        dot = (g * s).sum(axis=axis, keepdims=True)
        _accumulate(x, (g - dot) * s)

    return Tensor._node(s, (x,), "softmax", backward)


def transpose(a: Tensor) -> Tensor:
    return Tensor._node(a.data.T.copy(), (a,), "transpose", lambda g: _accumulate(a, g.T))


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    def backward(g):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        _accumulate(a, full)

    return Tensor._node(a.data[:, start:stop].copy(), (a,), "slice_cols", backward)


def concat_rows(parts) -> Tensor:
    def backward(g):
        off = 0
        for p in parts:
            _accumulate(p, g[off:off + p.data.shape[0]])
            off += p.data.shape[0]

    return Tensor._node(np.concatenate([p.data for p in parts]), tuple(parts), "concat_rows",
                        backward)


def tile_rows(a: Tensor, n: int) -> Tensor:
    return Tensor._node(np.repeat(a.data, n, axis=0), (a,), "tile_rows",
                        lambda g: _accumulate(a, g.sum(axis=0, keepdims=True)))


def attention_head(x, wq, wk, wv, mask=None) -> Tensor:
    """One attention head: softmax(q k^T / sqrt(d_head) + mask) v, mask [T, T]."""
    q, k, v = matmul(x, wq), matmul(x, wk), matmul(x, wv)
    scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(wq.data.shape[1]))
    if mask is not None:
        scores = add(scores, Tensor(mask.astype(scores.data.dtype)))
    return matmul(softmax(scores, axis=-1), v)


def encoder_block(x, params, prefix, n_heads, mask, drop_rate=0.0, rng=None) -> Tensor:
    d_head = x.data.shape[1] // n_heads
    normed = layer_norm(x, params[prefix + "ln1.g"], params[prefix + "ln1.b"])
    heads = [attention_head(normed,
                            *(slice_cols(params[prefix + "attn." + w], h * d_head,
                                         (h + 1) * d_head) for w in ("wq", "wk", "wv")),
                            mask)
             for h in range(n_heads)]
    x = add(x, dropout(matmul(concat_cols(heads), params[prefix + "attn.wo"]), drop_rate, rng))
    normed = layer_norm(x, params[prefix + "ln2.g"], params[prefix + "ln2.b"])
    ff = matmul(gelu(add(matmul(normed, params[prefix + "ffn.w1"]), params[prefix + "ffn.b1"])),
                params[prefix + "ffn.w2"])
    return add(x, dropout(add(ff, params[prefix + "ffn.b2"]), drop_rate, rng))


def style_vector(params, config, spec, stats):
    """The [1, s] style row of one spec, or None."""
    if config.style_mode == "none":
        return None
    t = min(max((spec.timestamp - stats.t_min) / (stats.t_max - stats.t_min), 0.0), 1.0)
    if config.style_mode == "minmax2":
        s = min(max(spec.section_id / (stats.n_sections - 1), 0.0), 1.0)
        return Tensor(np.array([[s, t]], dtype=np.float32))
    x = np.zeros((1, stats.n_sections + 1), dtype=params["style.w1"].data.dtype)
    x[0, spec.section_id] = 1.0
    x[0, stats.n_sections] = t
    h = gelu(add(matmul(Tensor(x), params["style.w1"]), params["style.b1"]))
    return add(matmul(h, params["style.w2"]), params["style.b2"])


def backbone(params, config, ids, mask, style) -> Tensor:
    h = add(embedding(params["tok_emb"], ids), slice_rows(params["pos_emb"], 0, len(ids)))
    if style is not None:
        h = concat_cols([h, tile_rows(style, len(ids))])
    for i in range(config.n_layers):
        h = encoder_block(h, params, f"layer{i}.", config.n_heads, mask)
    return layer_norm(h, params["ln_f.g"], params["ln_f.b"])


def lm_forward(params, config, ids, spec=None, stats=None) -> Tensor:
    """Causal logits [T, V] of one sequence."""
    h = backbone(params, config, ids, causal_mask(len(ids)),
                 style_vector(params, config, spec, stats))
    return add(matmul(h, params["head.w"]), params["head.b"])


def clf_hidden(params, config, ids) -> Tensor:
    """[1, d] hidden row at the last non-pad position of one sequence."""
    loaded = max(i for i, t in enumerate(ids) if t != text.PAD)
    cols = np.array([-np.inf if t == text.PAD else 0.0 for t in ids], dtype=np.float32)
    mask = np.tile(cols, (len(ids), 1)) if np.isneginf(cols).any() else None
    return slice_rows(backbone(params, config, ids, mask, None), loaded, loaded + 1)


def clf_forward(params, config, ids) -> Tensor:
    """Section logits [n_sections] of one sequence."""
    logits = add(matmul(clf_hidden(params, config, ids), params["head.w"]), params["head.b"])
    return reshape(logits, (config.n_sections,))


def lm_batch_loss(params, config, batch, stats) -> Tensor:
    """Mean over samples of each sample's mean next-token loss, one graph per sample."""
    losses = [cross_entropy_mean(
                  slice_rows(lm_forward(params, config, s.ids, s.spec, stats), 0, len(s.ids) - 1),
                  s.ids[1:], ignore_id=text.PAD)
              for s in batch]
    total = losses[0]
    for extra in losses[1:]:
        total = add(total, extra)
    return scale(total, 1.0 / len(losses))


def clf_batch_loss(params, config, batch) -> Tensor:
    rows = [reshape(clf_forward(params, config, s.ids), (1, config.n_sections)) for s in batch]
    return cross_entropy_mean(concat_rows(rows), [s.label for s in batch])


def evaluate_lm(params, config, samples, stats) -> float:
    """Per-token mean loss over all non-pad targets."""
    total, count = 0.0, 0
    for s in samples:
        logits = lm_forward(params, config, s.ids, s.spec, stats).data
        tgt = np.asarray(s.ids[1:], dtype=np.int64)
        keep = tgt != text.PAD
        total += float(token_nll(logits[:-1].astype(np.float64), tgt)[keep].sum())
        count += int(keep.sum())
    return total / count


def confusion(params, config, samples) -> np.ndarray:
    out = np.zeros((config.n_sections, config.n_sections), dtype=np.int64)
    for s in samples:
        out[s.label, int(np.argmax(clf_forward(params, config, s.ids).data))] += 1
    return out


def generate_refeed(prompt, spec, policy, params, config, vocab, stats=None) -> str:
    """generate.generate by full refeed: the whole context through model.lm_forward per token."""
    limit = min(TOKEN_LIMIT, config.max_seq)
    ids = [text.SOS] + [vocab.id_of(c) for c in prompt]
    rng = np.random.default_rng(policy.seed)
    prompt_len = len(ids)
    while len(ids) < limit:
        logits = model.lm_forward(params, config, ids, spec, stats).data[-1]
        nxt = sample_next(logits, policy, rng)
        ids.append(nxt)
        if nxt == text.EOS:
            break
    tail = ids[prompt_len:]
    if tail and tail[-1] == text.EOS:
        tail = tail[:-1]
    return prompt + text.decode(tail, vocab)
