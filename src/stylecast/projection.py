"""Two-stage dimensionality reduction of latents, overlay casting, SVG output.

One neighbor query serves the graph and the casts: a matrix product per
block of rows gives squared distances, the columns near each row's k-th are
ranked by exact distance, and ties go to the lower index, so neither n nor
the block size picks among duplicate points. One weight step follows it: a
batched bisection solves each row's kernel width sigma so its neighbor
weights exp(-(d - rho)+ / sigma) sum to log2(k).

Stage 1 queries the points against themselves for a fuzzy k-nearest-neighbor
graph and symmetrizes the directed weights by fuzzy union over sorted COO
edge arrays. Stage 2 lays the nodes out in 2-D: each epoch applies
attraction along every edge and repulsion against sampled non-neighbors, all
computed from one snapshot of the positions and scattered at once, with a
linearly decaying learning rate. The layout curve (LAYOUT_A, LAYOUT_B),
NEGATIVE_SAMPLES, INITIAL_LR, SVG_SIZE and SVG_RADIUS are module constants.
Casting queries any number of new latents against the frozen layout's
latents at once and places each at its neighbors' weighted mean position.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
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
KNN_ROUNDING = 1e-9  # bound on the product's squared-distance error, per squared norm
LAYOUT_A, LAYOUT_B = 1.58, 0.9  # attraction curve a*d^2b / (1 + a*d^2b)
NEGATIVE_SAMPLES = 5  # repulsions per edge and epoch
INITIAL_LR = 1.0
SVG_SIZE, SVG_RADIUS = 1000, 3

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


def _nearest(query: np.ndarray, ref: np.ndarray, k: int,
             skip_self: bool = False) -> tuple[np.ndarray, ...]:
    """Each query row's k nearest rows of `ref` (k at most the rows there are), ordered
    by (distance, index): [m, k] indices and weights exp(-(d - rho)+ / sigma), and each
    row's rho and sigma. With `skip_self` query is ref and skips itself. Distances come
    from one product per KNN_BLOCK query rows. The columns within KNN_ROUNDING of a row's
    k-th are ranked by exact distance, so rounding never decides a tie, and squared
    distances below KNN_ROUNDING, mostly rounding in the product, are taken exact."""
    query, ref = np.asarray(query, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    k = min(k, len(ref) - skip_self)
    sq = (ref ** 2).sum(axis=1)
    neighbors, dists = np.empty((len(query), k), dtype=np.int64), np.empty((len(query), k))
    for start in range(0, len(query), KNN_BLOCK):
        q = query[start:start + KNN_BLOCK]
        q_sq = (q ** 2).sum(axis=1)[:, None]
        d2 = q_sq + sq - 2.0 * (q @ ref.T)
        if skip_self:
            np.fill_diagonal(d2[:, start:], np.inf)
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        band = KNN_ROUNDING * (q_sq + sq.max())
        n_cand = (d2 <= kth + band).sum(axis=1).max()
        cand = np.argpartition(d2, n_cand - 1, axis=1)[:, :n_cand]
        exact = ((q[:, None, :] - ref[cand]) ** 2).sum(axis=2)
        order = np.lexsort((cand, exact), axis=1)[:, :k]
        idx, exact = np.take_along_axis(cand, order, 1), np.take_along_axis(exact, order, 1)
        d2 = np.where(exact < band, exact, np.take_along_axis(d2, idx, 1))
        neighbors[start:start + len(q)] = idx
        dists[start:start + len(q)] = np.sqrt(np.maximum(d2, 0.0))
    rhos, sigmas = smooth_sigma(dists, max(k, 2))
    weights = np.exp(-np.maximum(dists - rhos[:, None], 0.0) / sigmas[:, None])
    return neighbors, weights, rhos, sigmas


def fuzzy_knn_graph(points: np.ndarray, k: int) -> FuzzyGraph:
    """Brute-force exact kNN graph with locally adaptive weights."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if k < 2:
        raise ProjectionError(f"k must be >= 2, got {k}")
    if n <= k:
        raise ProjectionError(f"need more points ({n}) than neighbors ({k})")
    neighbors, weights, rhos, sigmas = _nearest(pts, pts, k, skip_self=True)
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


def optimize_layout(graph: FuzzyGraph, epochs: int, seed: int, *,
                    labels: list[int]) -> list[LayoutPoint]:
    """Stochastic 2-D layout of a symmetrized fuzzy graph.

    Per epoch every edge pulls its endpoints together with strength
    proportional to its weight along the LAYOUT_A, LAYOUT_B curve; each
    edge also fires NEGATIVE_SAMPLES repulsions from the head against
    randomly drawn non-neighbors. All forces of an epoch are computed from
    the positions at its start and applied together, at a rate falling
    linearly from INITIAL_LR. Deterministic under seed.
    """
    if len(graph.sym_edges) == 0:
        raise ProjectionError("cannot lay out an empty graph")
    n = graph.n
    a, b, clip = LAYOUT_A, LAYOUT_B, GRAD_CLIP
    rng = np.random.default_rng(seed)
    emb = rng.uniform(-10.0, 10.0, size=(n, 2))
    edges = np.asarray(graph.sym_edges, dtype=np.float64)
    head = edges[:, 0].astype(np.int64)
    tail = edges[:, 1].astype(np.int64)
    w = edges[:, 2:3]
    neighbor_keys = np.sort(np.concatenate([head * n + tail, tail * n + head]))
    neg_head = np.repeat(head, NEGATIVE_SAMPLES)

    for epoch in range(epochs):
        alpha = INITIAL_LR * (1.0 - epoch / epochs)
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

    return [LayoutPoint(x, y, int(l)) for (x, y), l in zip(emb.tolist(), labels)]


def project_latents(latents: np.ndarray, labels: list[int], k: int, epochs: int,
                    seed: int) -> ProjectionResult:
    """Stage 1 + stage 2 over a latent matrix, retaining it for overlays."""
    t0 = time.perf_counter()
    graph = fuzzy_knn_graph(latents, k)
    t1 = time.perf_counter()
    points = optimize_layout(graph, epochs=epochs, seed=seed, labels=labels)
    t2 = time.perf_counter()
    return ProjectionResult(points=points, latents=np.asarray(latents, dtype=np.float64), k=k,
                            sym_edges=len(graph.sym_edges),
                            stage_s={"knn": t1 - t0, "layout": t2 - t1})


def cast_latent(latent: np.ndarray, result: ProjectionResult) -> LayoutPoint | list[LayoutPoint]:
    """Place latents on the frozen layout at their kNN kernel-weighted mean: a [d]
    latent gives one point, an [m, d] batch a list of m, each as if cast alone."""
    if not result.points:
        raise ProjectionError("cannot cast onto an untrained layout")
    idx, w, _, _ = _nearest(np.atleast_2d(latent), result.latents, result.k)
    layout = np.array([(p.x, p.y) for p in result.points])
    xy = np.matmul((w / w.sum(axis=1, keepdims=True))[:, None, :], layout[idx])[:, 0]
    points = [LayoutPoint(x, y, OVERLAY_LABEL, is_overlay=True) for x, y in xy.tolist()]
    return points[0] if np.ndim(latent) == 1 else points


def cast_overlay(phrase: str, params: dict[str, Tensor], config: ModelConfig,
                 vocab: text.Vocab, result: ProjectionResult) -> LayoutPoint:
    """Run a phrase through the classifier and cast its latent onto the layout."""
    ids = text.encode_title(phrase, vocab, config.max_seq)
    return cast_latent(extract_latent(params, config, ids).data, result)


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


def emit_scatter_svg(points: list[LayoutPoint], class_names: list[str], path: str | Path) -> None:
    """Write an SVG 1.1 scatter: one circle per point, overlays black on top."""
    if not points:
        raise ProjectionError("no points to plot")
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    margin = 0.05 * SVG_SIZE
    span = SVG_SIZE - 2.0 * margin

    def scaled(v: float, lo: float, hi: float) -> float:
        if hi == lo:
            return SVG_SIZE / 2.0
        return margin + (v - lo) / (hi - lo) * span

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)

    def color(p: LayoutPoint) -> str:
        if p.is_overlay:
            return "#000000"
        return PALETTE[p.label % len(PALETTE)]

    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="#ffffff"/>',
    ]
    ordered = [p for p in points if not p.is_overlay] + [p for p in points if p.is_overlay]
    for p in ordered:
        cx = scaled(p.x, x_lo, x_hi)
        cy = SVG_SIZE - scaled(p.y, y_lo, y_hi)
        body.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{SVG_RADIUS}" fill="{color(p)}"/>')
    lx = SVG_SIZE - 190
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
