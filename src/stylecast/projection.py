"""Two-stage dimensionality reduction of latents, overlay casting, SVG output.

Stage 1 builds a fuzzy k-nearest-neighbor graph. Distances are computed in
fixed row blocks; one batched bisection solves every node's kernel width
sigma so its neighbor weights sum to log2(k); directed weights are then
symmetrized by fuzzy union over sorted COO edge arrays. Stage 2 lays the
nodes out in 2-D: each epoch applies attraction along every edge and
repulsion against sampled non-neighbors, all computed from one snapshot of
the positions and scattered at once, with a linearly decaying learning rate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from . import text
from .fileio import atomic_write_bytes, atomic_write_text
from .model import ModelConfig, extract_latent
from .tensor import Tensor

SIGMA_TOL = 1e-6
SIGMA_ITERS = 128
GRAD_CLIP = 4.0
KNN_BLOCK = 256  # rows of the distance matrix held at once

# 11-color palette, one per news section at full scale.
PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8",
]

OVERLAY_LABEL = -1


class ProjectionError(ValueError):
    pass


@dataclass
class FuzzyGraph:
    """Directed kNN weights plus their fuzzy-union symmetrization.

    `sym_edges` is an [m, 3] float64 array of (i, j, w) rows with i < j,
    sorted by (i, j): one row per undirected edge.
    """

    n: int
    k: int
    neighbors: np.ndarray        # [n, k] indices
    weights: np.ndarray          # [n, k] directed weights in (0, 1]
    rhos: np.ndarray
    sigmas: np.ndarray
    sym_edges: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))


@dataclass
class LayoutPoint:
    x: float
    y: float
    label: int
    is_overlay: bool = False


@dataclass
class ProjectionResult:
    """Frozen layout plus the latents that produced it, for overlay casting.

    `sym_edges` and `stage_s` (seconds per stage: "knn", "layout") describe
    the run that made the layout.
    """

    points: list[LayoutPoint]
    latents: np.ndarray
    k: int
    sym_edges: int = 0
    stage_s: dict[str, float] = field(default_factory=dict)

    @cached_property
    def xy(self) -> np.ndarray:
        """[n, 2] layout coordinates of `points`."""
        return np.array([(p.x, p.y) for p in self.points], dtype=np.float64).reshape(-1, 2)


def smooth_sigma(dists: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a [rows, k] distance matrix: rho = nearest distance, and
    sigma solved so sum exp(-(d-rho)+/sigma) = log2(k).

    One bounded bisection runs on every row in lockstep: sigma doubles until
    the sum first overshoots the target, then halves the bracket. A row stops
    updating once it is within SIGMA_TOL. When several neighbors tie at rho
    the target can be unattainable and the closest sigma is returned.
    """
    d = np.asarray(dists, dtype=np.float64)
    rho = d.min(axis=1)
    adj = np.maximum(d - rho[:, None], 0.0)
    target = math.log2(k)
    lo = np.zeros(len(d))
    hi = np.full(len(d), np.inf)
    mid = np.ones(len(d))
    active = np.ones(len(d), dtype=bool)
    for _ in range(SIGMA_ITERS):
        psum = np.exp(-adj / mid[:, None]).sum(axis=1)
        active &= ~(np.abs(psum - target) < SIGMA_TOL)
        if not active.any():
            break
        over = active & (psum > target)
        under = active & ~over
        hi = np.where(over, mid, hi)
        lo = np.where(under, mid, lo)
        mid = np.where(active, np.where(np.isinf(hi), mid * 2.0, (lo + hi) / 2.0), mid)
    return rho, mid


def fuzzy_knn_graph(points: np.ndarray, k: int) -> FuzzyGraph:
    """Brute-force exact kNN graph with locally adaptive weights."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if k < 2:
        raise ProjectionError(f"k must be >= 2, got {k}")
    if n <= k:
        raise ProjectionError(f"need more points ({n}) than neighbors ({k})")
    sq = (pts ** 2).sum(axis=1)
    neighbors = np.empty((n, k), dtype=np.int64)
    nd = np.empty((n, k), dtype=np.float64)
    for start in range(0, n, KNN_BLOCK):
        block = slice(start, min(start + KNN_BLOCK, n))
        d2 = np.maximum(sq[block, None] + sq[None, :] - 2.0 * (pts[block] @ pts.T), 0.0)
        dist = np.sqrt(d2)
        rows = np.arange(block.start, block.stop)
        dist[rows - start, rows] = np.inf
        idx = np.argpartition(dist, k, axis=1)[:, :k]
        near = np.take_along_axis(dist, idx, axis=1)
        order = np.argsort(near, axis=1, kind="stable")
        neighbors[block] = np.take_along_axis(idx, order, axis=1)
        nd[block] = np.take_along_axis(near, order, axis=1)
    rhos, sigmas = smooth_sigma(nd, k)
    weights = np.exp(-np.maximum(nd - rhos[:, None], 0.0) / sigmas[:, None])
    return FuzzyGraph(n=n, k=k, neighbors=neighbors, weights=weights, rhos=rhos,
                      sigmas=sigmas, sym_edges=_fuzzy_union(neighbors, weights))


def _fuzzy_union(neighbors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Symmetrize directed kNN weights: w(i,j) + w(j,i) - w(i,j) w(j,i), a
    missing direction counting 0. Returns [m, 3] (i, j, w) rows, i < j,
    sorted by (i, j)."""
    n, k = neighbors.shape
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = neighbors.ravel()
    w = weights.ravel()
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    keys = src * n + dst
    reverse = dst * n + src
    pos = np.minimum(np.searchsorted(keys, reverse), len(keys) - 1)
    found = keys[pos] == reverse
    wr = np.where(found, w[pos], 0.0)
    # keep each undirected pair once: from its i < j direction, or from the
    # only direction present
    keep = (src < dst) | ~found
    lo = np.minimum(src, dst)[keep]
    hi = np.maximum(src, dst)[keep]
    sym = (w + wr - w * wr)[keep]
    order = np.lexsort((hi, lo))
    return np.column_stack([lo[order], hi[order], sym[order]]).astype(np.float64)


def optimize_layout(graph: FuzzyGraph, dims: int = 2, epochs: int = 200,
                    seed: int = 0, a: float = 1.58, b: float = 0.9,
                    negative_samples: int = 5, initial_lr: float = 1.0,
                    labels: list[int] | None = None) -> list[LayoutPoint]:
    """Stochastic 2-D layout of a symmetrized fuzzy graph.

    Per epoch every edge pulls its endpoints together with strength
    proportional to its weight along the curve a*d^2b / (1 + a*d^2b);
    each edge also fires `negative_samples` repulsions from the head
    against randomly drawn non-neighbors. All forces of an epoch are
    computed from the positions at its start and applied together.
    Deterministic under seed.
    """
    if dims != 2:
        raise ProjectionError("layout emits 2-D scatter points only")
    if len(graph.sym_edges) == 0:
        raise ProjectionError("cannot lay out an empty graph")
    n = graph.n
    rng = np.random.default_rng(seed)
    emb = rng.uniform(-10.0, 10.0, size=(n, dims))
    edges = np.asarray(graph.sym_edges, dtype=np.float64)
    head = edges[:, 0].astype(np.int64)
    tail = edges[:, 1].astype(np.int64)
    w = edges[:, 2:3]
    neighbor_keys = np.sort(np.concatenate([head * n + tail, tail * n + head]))
    neg_head = np.repeat(head, negative_samples)

    clip = GRAD_CLIP
    for epoch in range(epochs):
        alpha = initial_lr * (1.0 - epoch / epochs)
        diff = emb[head] - emb[tail]
        d2 = (diff * diff).sum(axis=1, keepdims=True)
        safe = np.where(d2 > 0.0, d2, 1.0)
        coeff = np.where(d2 > 0.0,
                         (-2.0 * a * b * safe ** (b - 1.0)) / (a * safe ** b + 1.0), 0.0)
        pull = np.clip(coeff * diff, -clip, clip) * w

        other = rng.integers(n, size=len(neg_head))
        keys = neg_head * n + other
        pos = np.minimum(np.searchsorted(neighbor_keys, keys), len(neighbor_keys) - 1)
        ok = (other != neg_head) & (neighbor_keys[pos] != keys)
        src, other = neg_head[ok], other[ok]
        rdiff = emb[src] - emb[other]
        rd2 = (rdiff * rdiff).sum(axis=1, keepdims=True)
        rcoeff = (2.0 * b) / ((0.001 + rd2) * (a * rd2 ** b + 1.0))
        push = np.clip(rcoeff * rdiff, -clip, clip)

        at = np.concatenate([head, tail, src])
        step = np.concatenate([pull, -pull, push])
        emb[:, 0] += alpha * np.bincount(at, weights=step[:, 0], minlength=n)
        emb[:, 1] += alpha * np.bincount(at, weights=step[:, 1], minlength=n)

    lab = labels if labels is not None else [0] * n
    return [LayoutPoint(x, y, int(l)) for (x, y), l in zip(emb.tolist(), lab)]


def project_latents(latents: np.ndarray, labels: list[int], k: int = 15,
                    epochs: int = 200, seed: int = 0) -> ProjectionResult:
    """Stage 1 + stage 2 over a latent matrix, retaining it for overlays."""
    t0 = time.perf_counter()
    graph = fuzzy_knn_graph(latents, k)
    t1 = time.perf_counter()
    points = optimize_layout(graph, epochs=epochs, seed=seed, labels=labels)
    t2 = time.perf_counter()
    return ProjectionResult(points=points, latents=np.asarray(latents, dtype=np.float64), k=k,
                            sym_edges=len(graph.sym_edges),
                            stage_s={"knn": t1 - t0, "layout": t2 - t1})


def cast_latent(latent: np.ndarray, result: ProjectionResult) -> LayoutPoint:
    """Interpolate a new latent onto the frozen layout via its kNN kernel weights."""
    if not result.points:
        raise ProjectionError("cannot cast onto an untrained layout")
    vec = np.asarray(latent, dtype=np.float64)
    dist = np.sqrt(((result.latents - vec) ** 2).sum(axis=1))
    k = min(result.k, len(dist))
    idx = np.argpartition(dist, k - 1)[:k] if k < len(dist) else np.arange(len(dist))
    idx = idx[np.argsort(dist[idx], kind="stable")]
    nd = dist[idx]
    rho, sigma = smooth_sigma(nd[None, :], max(k, 2))
    w = np.exp(-np.maximum(nd - rho, 0.0) / sigma)
    w /= w.sum()
    x, y = w @ result.xy[idx]
    return LayoutPoint(float(x), float(y), OVERLAY_LABEL, is_overlay=True)


def cast_overlay(phrase: str, params: dict[str, Tensor], config: ModelConfig,
                 vocab: text.Vocab, result: ProjectionResult) -> LayoutPoint:
    """Run a phrase through the classifier and cast its latent onto the layout."""
    ids = text.encode_title(phrase, vocab, config.max_seq)
    latent = extract_latent(params, config, ids).data
    return cast_latent(latent, result)


# -- latent file interface ---------------------------------------------------------


def write_latents(path: str | Path, latents: np.ndarray) -> None:
    arr = np.ascontiguousarray(latents, dtype="<f4")
    if arr.ndim != 2:
        raise ProjectionError(f"latents must be 2-D, got shape {arr.shape}")
    header = np.array(arr.shape, dtype="<u4").tobytes()
    atomic_write_bytes(path, header + arr.tobytes())


def read_latents(path: str | Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < 8:
        raise ProjectionError(f"latent file {path} is truncated")
    n, d = np.frombuffer(blob[:8], dtype="<u4")
    body = np.frombuffer(blob[8:], dtype="<f4")
    if body.size != int(n) * int(d):
        raise ProjectionError(f"latent file {path}: expected {n}x{d} floats, got {body.size}")
    return body.reshape(int(n), int(d)).astype(np.float32)


# -- scatter output ----------------------------------------------------------------


def emit_scatter_svg(points: list[LayoutPoint], class_names: list[str],
                     path: str | Path, size: int = 1000, radius: int = 3) -> None:
    """Write an SVG 1.1 scatter: one circle per point, overlays black on top."""
    if not points:
        raise ProjectionError("no points to plot")
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    margin = 0.05 * size
    span = size - 2.0 * margin

    def scaled(v: float, lo: float, hi: float) -> float:
        if hi == lo:
            return size / 2.0
        return margin + (v - lo) / (hi - lo) * span

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)

    def color(p: LayoutPoint) -> str:
        if p.is_overlay:
            return "#000000"
        return PALETTE[p.label % len(PALETTE)]

    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    ordered = [p for p in points if not p.is_overlay] + [p for p in points if p.is_overlay]
    for p in ordered:
        cx = scaled(p.x, x_lo, x_hi)
        cy = size - scaled(p.y, y_lo, y_hi)
        body.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius}" fill="{color(p)}"/>')
    lx = size - 190
    ly = 30
    body.append('<g font-family="sans-serif" font-size="14">')
    for i, name in enumerate(class_names):
        cy = ly + 20 * i
        body.append(f'<circle cx="{lx}" cy="{cy - 5}" r="5" fill="{PALETTE[i % len(PALETTE)]}"/>')
        body.append(f'<text x="{lx + 12}" y="{cy}">{escape(name)}</text>')
    if any(p.is_overlay for p in points):
        cy = ly + 20 * len(class_names)
        body.append(f'<circle cx="{lx}" cy="{cy - 5}" r="5" fill="#000000"/>')
        body.append(f'<text x="{lx + 12}" y="{cy}">cast phrase</text>')
    body.append("</g>")
    body.append("</svg>")
    atomic_write_text(path, "\n".join(body) + "\n")
