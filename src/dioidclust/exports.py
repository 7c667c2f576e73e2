"""Serialization of clustering results: Newick, JSON, DOT, and dense CSV.

Newick trees place every leaf at height 0 and each internal node at its
merge resolution; a branch length is the parent height minus the child
height, so the cumulative path length from any leaf to the root equals the
root's resolution. Children are ordered by their lexicographically
smallest leaf so output is stable. Forests emit one tree per line. Labels
holding a format's metacharacters are quoted: single quotes in Newick,
standard CSV quoting, and escaped quotes and backslashes in DOT.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .hierarchy import Dendrogram, Partition, Ultrametric, _forest
from .network import Network, format_value, _matrix_csv

__all__ = [
    "dendrogram_json",
    "matrix_csv",
    "newick",
    "partition_json",
    "partition_text",
    "threshold_dot",
]


def _newick_label(label: str) -> str:
    """Single-quote a label holding whitespace or ()[]':;, doubling its quotes."""
    if any(ch.isspace() or ch in "()[]':;," for ch in label):
        return "'" + label.replace("'", "''") + "'"
    return label


def _newick_tree(root) -> str:
    """Newick text of one tree; children are written before their parents, without recursion."""
    order, stack = [], [root]
    while stack:
        order.append(stack.pop())
        stack.extend(order[-1].children)
    text = {}
    for node in reversed(order):
        inner = ",".join(f"{text.pop(id(c))}:{format_value(node.height - c.height)}" for c in node.children)
        text[id(node)] = f"({inner})" if node.children else _newick_label(node.min_leaf)
    return text[id(root)]


def newick(d: Dendrogram) -> str:
    """Newick text of a dendrogram, one tree per root, trailing newline.

    Malformed merges raise DendrogramStructureError.
    """
    # A tree's root sits at its own height, so its branch length is 0.
    lines = [_newick_tree(root) + (":0;" if root.children else ";") for root in _forest(d)]
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
    names = [lab.replace("\\", "\\\\").replace('"', '\\"') for lab in net.labels]
    for name in names:
        lines.append(f'  "{name}";')
    a = net.dissim
    for i, src in enumerate(names):
        for j, dst in enumerate(names):
            if i != j and a[i, j] <= delta:
                lines.append(f'  "{src}" -> "{dst}" [label="{format_value(a[i, j])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def matrix_csv(labels, matrix) -> str:
    """Dense CSV of a square matrix with the shared label header layout."""
    return _matrix_csv(labels, matrix)
