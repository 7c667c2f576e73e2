"""Serialization of clustering results: Newick, JSON, DOT, and dense CSV.

Newick trees place every leaf at height 0 and each internal node at its
merge resolution; a branch length is the parent height minus the child
height, so the cumulative path length from any leaf to the root equals the
root's resolution. It is written from the dendrogram's tree order, where
children come by smallest leaf, so output is stable. Forests emit one tree
per line. Labels holding a format's metacharacters are quoted: single
quotes in Newick, standard CSV quoting, and escaped quotes and backslashes
in DOT.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .hierarchy import Dendrogram, Partition, Ultrametric
from .network import Network, _format_array, _matrix_csv, format_value

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


def newick(d: Dendrogram) -> str:
    """Newick text of a dendrogram, one tree per root, trailing newline.

    Written along the tree order from one stack of open blocks, without
    recursion. Malformed merges raise DendrogramStructureError.
    """
    order, joins, heights = d._tree_order
    lines, stack = [], []  # open blocks, innermost last: (block, height, child texts)
    for leaf, join in zip(order, joins):
        text, height = _newick_label(d.leaves[leaf]), 0.0
        while stack and (join < 0 or stack[-1][0] < join):
            _, top, children = stack.pop()
            text, height = "(" + ",".join(children + [f"{text}:{format_value(top - height)}"]) + ")", top
        if join < 0:  # a root sits at its own height, so its branch length is 0; a lone leaf has none
            lines.append(text + (":0;" if height > 0 else ";"))
            continue
        if not stack or stack[-1][0] != join:
            stack.append((join, heights[join], []))
        stack[-1][2].append(f"{text}:{format_value(stack[-1][1] - height)}")
    return "\n".join(lines) + "\n"


def _json_number(value: float) -> str:
    return json.dumps(format_value(value) if math.isinf(value) else value)


def dendrogram_json(u: Ultrametric, d: Dendrogram) -> str:
    """JSON document with labels, merge events, and the full matrix.

    The matrix block is laid out as ``json.dumps(indent=2)`` lays it out,
    from one text per distinct value.
    """
    doc = {
        "labels": list(u.labels),
        "matrix": None,
        "merges": [
            {"resolution": event.resolution, "blocks": [list(b) for b in event.blocks]}
            for event in d.merges
        ],
    }
    # Labels are escaped onto one line each, so only the top level holds this line.
    head, _, tail = json.dumps(doc, indent=2, sort_keys=True).partition('\n  "matrix": null,\n')
    rows = ["    [\n      " + ",\n      ".join(row) + "\n    ]"
            for row in _format_array(u.dist, _json_number).tolist()]
    matrix = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return f'{head}\n  "matrix": {matrix},\n{tail}\n'


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
    rows, cols = np.nonzero((a <= delta) & ~np.eye(net.n, dtype=bool))
    for i, j, text in zip(rows.tolist(), cols.tolist(), _format_array(a[rows, cols]).tolist()):
        lines.append(f'  "{names[i]}" -> "{names[j]}" [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def matrix_csv(labels, matrix) -> str:
    """Dense CSV of a square matrix with the shared label header layout."""
    return _matrix_csv(labels, matrix)
