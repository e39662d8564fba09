"""Metadata style vectors and their fusion with token embeddings.

Three modes: learned10 (two trainable linear layers to a 10-d vector),
minmax2 (min-max normalized section and timestamp), none. The style
functions take a batch of specs and return one row per spec; each
sequence's row is concatenated onto every one of its token embeddings,
so token_dim + style_dim always equals d_model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import Tensor, add, concat_cols, embedding, gelu, matmul

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


def _norm_time(specs: Sequence[StyleSpec], stats: CorpusStats) -> np.ndarray:
    t = np.array([s.timestamp for s in specs], dtype=np.float64)
    return np.clip((t - stats.t_min) / (stats.t_max - stats.t_min), 0.0, 1.0)


def minmax_style(specs: Sequence[StyleSpec], stats: CorpusStats) -> np.ndarray:
    """[B, 2] rows [section/(S-1), (t-t_min)/(t_max-t_min)], both clamped to [0, 1]."""
    stats.validate()
    s = np.array([spec.section_id for spec in specs], dtype=np.float64) / (stats.n_sections - 1)
    return np.stack([np.clip(s, 0.0, 1.0), _norm_time(specs, stats)], axis=1).astype(np.float32)


def learned_style(specs: Sequence[StyleSpec], stats: CorpusStats,
                  w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two linear layers with a GELU between, from one-hot section + time scalar.

    Input is [B, S+1]; output [B, 10]. Gradients reach all four params.
    """
    stats.validate()
    sections = np.array([spec.section_id for spec in specs], dtype=np.int64)
    if np.any((sections < 0) | (sections >= stats.n_sections)):
        raise IndexError(f"section out of range [0, {stats.n_sections}): {sections.tolist()}")
    x = np.zeros((len(specs), stats.n_sections + 1), dtype=w1.data.dtype)
    x[np.arange(len(specs)), sections] = 1.0
    x[:, stats.n_sections] = _norm_time(specs, stats)
    h = gelu(add(matmul(Tensor(x), w1), b1))
    return add(matmul(h, w2), b2)


def fuse_embedding(token_embeds: Tensor, style: Tensor | None, d_model: int) -> Tensor:
    """Append each sequence's style row to each of its token rows; output width d_model.

    token_embeds holds B sequences of equal length as [B*T, t_dim] rows;
    style holds their [B, s_dim] rows.
    """
    t_dim = token_embeds.data.shape[1]
    if style is None:
        if t_dim != d_model:
            raise StyleError(f"token width {t_dim} != d_model {d_model} with no style")
        return token_embeds
    b, s_dim = style.data.shape
    n = token_embeds.data.shape[0]
    if t_dim + s_dim != d_model or n % b:
        raise StyleError(f"token rows {token_embeds.data.shape} do not fit style rows "
                         f"{style.data.shape} at d_model {d_model}")
    return concat_cols([token_embeds, embedding(style, np.repeat(np.arange(b), n // b))])
