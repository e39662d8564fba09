"""Minimal dense-tensor engine with reverse-mode autodiff.

Values live in numpy arrays (float32 by default, float64 if the caller
feeds float64 arrays); every op records a backward closure so a single
`backward()` call on a scalar populates `.grad` on all reachable inputs.
Ops are 2-D: a batch of B sequences of T positions is B*T rows, and
`attention` alone looks inside it, reshaping the rows to [B, heads, T,
d_head]. Broadcasting is restricted to the patterns the transformer needs
(row-wise bias add, an attention mask over heads); anything else is a
shape error.

A backward closure takes its output's gradient as an argument and holds
no reference to its output, so a graph is acyclic and reference counting
frees it once the last tensor in it is dropped.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
LN_EPS = 1e-5


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class NumericError(ValueError):
    """Non-finite input where the op requires finite values."""


class Tensor:
    """Array node in a define-by-run graph.

    Leaves created with requires_grad=True are trainable parameters;
    leaves without it are constants. Non-leaves carry the producing
    op's backward closure and parent references.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
            self.data = data
        else:
            self.data = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = ""

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def needs_grad(self) -> bool:
        return self.requires_grad or bool(self._parents)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, op={self._op or 'leaf'})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    # -- graph construction helper -------------------------------------------

    @staticmethod
    def _node(data: np.ndarray, parents: Sequence["Tensor"], op: str,
              backward: Callable[[np.ndarray], None] | None) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = False
        live = tuple(p for p in parents if p.needs_grad)
        out._parents = live
        out._backward = backward if live else None
        out._op = op
        return out

    # -- backward -------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss.

        Visits each producing op exactly once, in reverse topological
        order; gradients accumulate additively across shared inputs. Each
        op is unlinked from its closure and parents once consumed.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward() requires a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
            node._backward = None
            node._parents = ()


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.needs_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


# -- element and matrix ops ----------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-D bias broadcast over the rows of a 2-D a."""
    bias_row = a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]
    if not bias_row and a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} do not match")
    out_data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g.sum(axis=0) if bias_row else g)

    return Tensor._node(out_data, (a, b), "add", backward)


def scale(a: Tensor, c: float) -> Tensor:
    out_data = a.data * c

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * c)

    return Tensor._node(out_data, (a,), "scale", backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard 2-D matrix product with gradients for both operands."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul: shapes {a.data.shape} and {b.data.shape} are not conformable")
    out_data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return Tensor._node(out_data, (a, b), "matmul", backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def backward(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(a.data.shape))

    return Tensor._node(a.data.reshape(shape).copy(), (a,), "reshape", backward)


# -- slicing / stitching -------------------------------------------------------


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    def backward(g: np.ndarray) -> None:
        full = np.zeros_like(a.data)
        full[start:stop] = g
        _accumulate(a, full)

    return Tensor._node(a.data[start:stop].copy(), (a,), "slice_rows", backward)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    widths = [p.data.shape[1] for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=1)

    def backward(g: np.ndarray) -> None:
        off = 0
        for p, w in zip(parts, widths):
            _accumulate(p, g[:, off:off + w])
            off += w

    return Tensor._node(out_data, tuple(parts), "concat_cols", backward)


def embedding(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Gather rows of an embedding table; gradients scatter-add back."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding: id out of range for table of {table.data.shape[0]} rows")

    def backward(g: np.ndarray) -> None:
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        _accumulate(table, full)

    return Tensor._node(table.data[idx], (table,), "embedding", backward)


# -- nonlinearities and losses ---------------------------------------------------


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask: np.ndarray) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(d_head) + mask) v over [B*Tq, d] query rows.

    k and v are [B*Tk, d] rows, Tk >= Tq when queries continue a cached
    prefix. Head h reads columns h*d_head:(h+1)*d_head of q, k and v and
    writes the same columns of the output. `mask` is additive,
    [B or 1, Tq or 1, Tk], and broadcast over the heads.
    """
    n, d = q.data.shape
    rows, tk = k.data.shape[0], mask.shape[-1]
    b = rows // tk if tk else 0
    if (mask.ndim != 3 or not b or rows % tk or n % b or k.data.shape != v.data.shape
            or k.data.shape[1] != d or d % n_heads):
        raise ShapeError(f"attention: q, k, v {q.data.shape}, {k.data.shape}, {v.data.shape}, "
                         f"{n_heads} heads, mask {mask.shape}")
    d_head = d // n_heads
    c = 1.0 / math.sqrt(d_head)

    def split(x: np.ndarray) -> np.ndarray:  # [B*T, d] -> [B, H, T, d_head]
        return x.reshape(b, -1, n_heads, d_head).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:  # [B, H, T, d_head] -> [B*T, d]
        return x.transpose(0, 2, 1, 3).reshape(-1, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * c
    scores += mask[:, None]
    if not np.all(np.isfinite(scores) | np.isneginf(scores)):
        raise NumericError("attention: scores contain nan or +inf")
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        gh = split(g)
        ds = gh @ vh.transpose(0, 1, 3, 2)
        ds = (ds - (ds * s).sum(axis=-1, keepdims=True)) * s * c
        _accumulate(q, merge(ds @ kh))
        _accumulate(k, merge(ds.transpose(0, 1, 3, 2) @ qh))
        _accumulate(v, merge(s.transpose(0, 1, 3, 2) @ gh))

    return Tensor._node(merge(s @ vh), (q, k, v), "attention", backward)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation."""
    d = x.data
    inner = _GELU_C * (d + _GELU_A * d ** 3)
    t = np.tanh(inner)
    out_data = 0.5 * d * (1.0 + t)

    def backward(g: np.ndarray) -> None:
        sech2 = 1.0 - t * t
        deriv = 0.5 * (1.0 + t) + 0.5 * d * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * d ** 2)
        _accumulate(x, g * deriv)

    return Tensor._node(out_data, (x,), "gelu", backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Zero mean / unit variance per row of [N, d] rows, then affine gain and bias."""
    d = x.data
    if d.ndim != 2:
        raise ShapeError(f"layer_norm: expected [N, d] rows, got shape {d.shape}")
    mu = d.mean(axis=-1, keepdims=True)
    var = d.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (d - mu) * inv
    out_data = xhat * gain.data + bias.data

    def backward(g: np.ndarray) -> None:
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, (dxhat - m1 - xhat * m2) * inv)
        _accumulate(gain, (g * xhat).sum(axis=0))
        _accumulate(bias, g.sum(axis=0))

    return Tensor._node(out_data, (x, gain, bias), "layer_norm", backward)


def token_nll(z: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row -log softmax(z)[target] of a [N, C] logit array, by log-sum-exp."""
    zmax = z.max(axis=-1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=-1))
    return lse - z[np.arange(len(z)), targets]


def cross_entropy_mean(logits: Tensor, targets,
                       ignore_id: int | None = None) -> Tensor:
    """Mean of -log softmax(logits)[target] over positions not equal to ignore_id.

    `targets` is [N] for N logit rows, or [B, T] for B sequences of T rows
    each: then the loss is the mean over sequences of each sequence's mean.
    """
    z = logits.data
    n, c = z.shape
    tgt = np.asarray(targets, dtype=np.int64)
    if tgt.ndim not in (1, 2) or tgt.size != n:
        raise ShapeError(f"cross_entropy: {n} logit rows but targets shape {tgt.shape}")
    tgt = tgt.reshape(1, n) if tgt.ndim == 1 else tgt
    keep = np.ones(tgt.shape, dtype=bool) if ignore_id is None else tgt != ignore_id
    counts = keep.sum(axis=1)
    if not counts.all():
        raise ValueError("cross_entropy: every position of a sequence carries the ignore id")
    kept = tgt[keep]
    if kept.min() < 0 or kept.max() >= c:
        raise IndexError(f"cross_entropy: target id out of range [0, {c})")

    flat = np.clip(tgt, 0, c - 1).reshape(n)
    nll = token_nll(z, flat).reshape(tgt.shape)
    loss = ((nll * keep).sum(axis=1) / counts).mean()
    weight = (keep / (counts[:, None] * len(counts))).reshape(n, 1)

    def backward(g: np.ndarray) -> None:
        soft = np.exp(z - z.max(axis=-1, keepdims=True))
        soft /= soft.sum(axis=-1, keepdims=True)
        soft[np.arange(n), flat] -= 1.0
        _accumulate(logits, soft * (weight * float(g)).astype(z.dtype))

    return Tensor._node(np.asarray(loss, dtype=z.dtype), (logits,), "cross_entropy", backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only during training."""
    if rate <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout needs an explicit rng for reproducibility")
    mask = (rng.random(x.data.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * mask)

    return Tensor._node(x.data * mask, (x,), "dropout", backward)


# -- gradient checking -----------------------------------------------------------


def grad_check(f: Callable[[list[np.ndarray]], Tensor],
               arrays: list[np.ndarray],
               coords: list[tuple[int, int]],
               h: float = 1e-3,
               tol: float = 1e-2) -> dict:
    """Compare reverse-mode gradients of scalar f against central differences.

    `f` rebuilds the graph from plain arrays so the oracle can rerun it in
    float64 (forward evaluations only, independent of the backward path).
    `coords` lists (array index, flat element index) pairs to probe.
    Returns a report dict with per-coordinate relative errors.
    """
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    loss = _run(f, leaves)
    loss.backward()
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in leaves]

    high = [a.astype(np.float64) for a in arrays]
    errors = []
    for ai, flat in coords:
        probe = [a.copy() for a in high]
        base = probe[ai].reshape(-1)[flat]
        probe[ai].reshape(-1)[flat] = base + h
        fp = _run_plain(f, probe)
        probe[ai].reshape(-1)[flat] = base - h
        fm = _run_plain(f, probe)
        numeric = (fp - fm) / (2.0 * h)
        a_val = float(analytic[ai].reshape(-1)[flat])
        denom = max(abs(a_val), abs(numeric), 1e-8)
        errors.append(abs(a_val - numeric) / denom)
    max_err = max(errors) if errors else 0.0
    return {"max_rel_error": max_err, "errors": errors, "passed": max_err <= tol}


def _run(f, leaves: list[Tensor]) -> Tensor:
    out = f(leaves)
    if out.data.size != 1:
        raise ShapeError("grad_check: f must be scalar-valued")
    return out


def _run_plain(f, arrays: list[np.ndarray]) -> float:
    return _run(f, [Tensor(a) for a in arrays]).item()
