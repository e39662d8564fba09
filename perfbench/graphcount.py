"""Exact counts over the autodiff graph behind a returned tensor.

The walk follows `_parents` and reads each node's `_op` tag, so it sees
the graph the engine built, whatever code built it.
"""

from __future__ import annotations

SLICE_CONCAT_OPS = {"slice_rows", "slice_cols", "concat_rows", "concat_cols"}


def _matmul_dims(node) -> tuple[int, int, int]:
    """(m, k, n) of a matmul node; parents that needed no gradient are not kept."""
    m, n = node.data.shape
    parents = node._parents
    if len(parents) == 2:
        return m, parents[0].data.shape[1], n
    shape = parents[0].data.shape
    return (m, shape[0], n) if shape[1] == n else (m, shape[1], n)


def graph_counts(root) -> dict:
    """Op nodes, matmul nodes, slice/concat nodes and matmul GFLOP behind root.

    GFLOP is computed from the shapes, 2mkn per product: one forward
    product per matmul node, plus the two products its backward closure
    evaluates when the node has one.
    """
    seen: set[int] = set()
    stack = [root]
    nodes = matmuls = slice_concat = 0
    flop = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
        if not t._op:
            continue
        nodes += 1
        if t._op == "matmul":
            matmuls += 1
            m, k, n = _matmul_dims(t)
            flop += (6 if t._backward is not None else 2) * m * k * n
        elif t._op in SLICE_CONCAT_OPS:
            slice_concat += 1
    return {"nodes": nodes, "matmul_nodes": matmuls, "slice_concat_nodes": slice_concat,
            "matmul_gflop": flop / 1e9}
