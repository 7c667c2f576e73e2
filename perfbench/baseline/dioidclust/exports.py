"""Serialization of clustering results: Newick, JSON, DOT, and dense CSV.

Newick trees place every leaf at height 0 and each internal node at its
merge resolution; a branch length is the parent height minus the child
height, so the cumulative path length from any leaf to the root equals the
root's resolution. Children are ordered by their lexicographically
smallest leaf so output is stable. Forests emit one tree per line.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .hierarchy import Dendrogram, Partition, Ultrametric
from .network import Network, format_value, _matrix_csv

__all__ = [
    "dendrogram_json",
    "matrix_csv",
    "newick",
    "partition_json",
    "partition_text",
    "threshold_dot",
]


class _Node:
    __slots__ = ("height", "children", "leaf", "min_leaf")

    def __init__(self, height, children, leaf=None):
        self.height = height
        self.children = children
        self.leaf = leaf
        self.min_leaf = leaf if leaf is not None else min(c.min_leaf for c in children)


def _build_forest(d: Dendrogram) -> list[_Node]:
    nodes: dict[str, _Node] = {lab: _Node(0.0, (), leaf=lab) for lab in d.leaves}
    for event in d.merges:
        for block in event.blocks:
            children = sorted(
                {id(nodes[m]): nodes[m] for m in block}.values(),
                key=lambda c: c.min_leaf,
            )
            joined = _Node(event.resolution, tuple(children))
            for m in block:
                nodes[m] = joined
    roots = {id(n): n for n in nodes.values()}
    return sorted(roots.values(), key=lambda c: c.min_leaf)


def _newick_node(node: _Node, parent_height: float) -> str:
    length = format_value(parent_height - node.height)
    if node.leaf is not None:
        return f"{node.leaf}:{length}"
    inner = ",".join(_newick_node(c, node.height) for c in node.children)
    return f"({inner}):{length}"


def newick(d: Dendrogram) -> str:
    """Newick text of a dendrogram, one tree per root, trailing newline."""
    lines = []
    for root in _build_forest(d):
        if root.leaf is not None:
            lines.append(f"{root.leaf};")
        else:
            lines.append(_newick_node(root, root.height) + ";")
    return "\n".join(lines) + "\n"


def _jsonable_matrix(matrix: np.ndarray) -> list[list]:
    out = []
    for row in matrix:
        out.append(["inf" if math.isinf(v) else float(v) for v in row])
    return out


def dendrogram_json(u: Ultrametric, d: Dendrogram) -> str:
    """JSON document with labels, merge events, and the full matrix."""
    doc = {
        "labels": list(u.labels),
        "merges": [
            {"resolution": event.resolution, "blocks": [list(b) for b in event.blocks]}
            for event in d.merges
        ],
        "matrix": _jsonable_matrix(u.dist),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def partition_json(p: Partition) -> str:
    doc = {"resolution": p.resolution, "blocks": [list(b) for b in p.blocks]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def partition_text(p: Partition) -> str:
    blocks = " ".join("{" + ",".join(b) + "}" for b in p.blocks)
    return f"{format_value(p.resolution)}: {blocks}\n"


def threshold_dot(net: Network, delta: float) -> str:
    """DOT digraph with an edge i -> j wherever the dissimilarity is <= delta."""
    lines = [f'digraph threshold {{', f'  // dissimilarity threshold {format_value(delta)}']
    for lab in net.labels:
        lines.append(f'  "{lab}";')
    a = net.dissim
    for i, src in enumerate(net.labels):
        for j, dst in enumerate(net.labels):
            if i != j and a[i, j] <= delta:
                lines.append(f'  "{src}" -> "{dst}" [label="{format_value(a[i, j])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def matrix_csv(labels, matrix) -> str:
    """Dense CSV of a square matrix with the shared label header layout."""
    return _matrix_csv(labels, matrix)
