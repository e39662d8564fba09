"""Metadata style vectors and their fusion with token embeddings.

Three modes: learned10 (two trainable linear layers to a 10-d vector),
minmax2 (min-max normalized section and timestamp), none. The style
vector is concatenated onto every token embedding so token_dim +
style_dim always equals d_model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, add, concat_cols, gelu, matmul, tile_rows

STYLE_DIMS = {"learned10": 10, "minmax2": 2, "none": 0}
LEARNED_HIDDEN = 32


class StyleError(ValueError):
    pass


@dataclass(frozen=True)
class StyleSpec:
    section_id: int
    timestamp: int


@dataclass(frozen=True)
class CorpusStats:
    """Ranges observed at training time; inference clamps into them."""

    n_sections: int
    t_min: int
    t_max: int

    def validate(self) -> None:
        if self.n_sections < 2:
            raise StyleError(f"degenerate stats: need >= 2 sections, got {self.n_sections}")
        if self.t_min >= self.t_max:
            raise StyleError(f"degenerate stats: t_min {self.t_min} >= t_max {self.t_max}")


def style_dim(mode: str) -> int:
    if mode not in STYLE_DIMS:
        raise StyleError(f"unknown style mode {mode!r}")
    return STYLE_DIMS[mode]


def _norm_time(timestamp: int, stats: CorpusStats) -> float:
    t = (timestamp - stats.t_min) / (stats.t_max - stats.t_min)
    return min(max(t, 0.0), 1.0)


def minmax_style(spec: StyleSpec, stats: CorpusStats) -> np.ndarray:
    """[section/(S-1), (t-t_min)/(t_max-t_min)], both clamped to [0, 1]."""
    stats.validate()
    s = spec.section_id / (stats.n_sections - 1)
    return np.array([min(max(s, 0.0), 1.0), _norm_time(spec.timestamp, stats)],
                    dtype=np.float32)


def learned_style(spec: StyleSpec, stats: CorpusStats,
                  w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two linear layers with a GELU between, from one-hot section + time scalar.

    Input is [1, S+1]; output [1, 10]. Gradients reach all four params.
    """
    stats.validate()
    if not 0 <= spec.section_id < stats.n_sections:
        raise IndexError(f"section {spec.section_id} out of range [0, {stats.n_sections})")
    x = np.zeros((1, stats.n_sections + 1), dtype=w1.data.dtype)
    x[0, spec.section_id] = 1.0
    x[0, stats.n_sections] = _norm_time(spec.timestamp, stats)
    h = gelu(add(matmul(Tensor(x), w1), b1))
    return add(matmul(h, w2), b2)


def fuse_embedding(token_embeds: Tensor, style_vec: Tensor | np.ndarray | None,
                   d_model: int) -> Tensor:
    """Append the same style vector to every token row; output width d_model."""
    t_dim = token_embeds.data.shape[1]
    if style_vec is None:
        if t_dim != d_model:
            raise StyleError(f"token width {t_dim} != d_model {d_model} with no style")
        return token_embeds
    if isinstance(style_vec, np.ndarray):
        style_vec = Tensor(style_vec.reshape(1, -1))
    s_dim = style_vec.data.shape[1]
    if t_dim + s_dim != d_model:
        raise StyleError(
            f"token width {t_dim} + style width {s_dim} != d_model {d_model}")
    n = token_embeds.data.shape[0]
    return concat_cols([token_embeds, tile_rows(style_vec, n)])
