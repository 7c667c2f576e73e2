"""Serialization of clustering results: Newick, JSON, DOT, and dense CSV.

Newick trees place every leaf at height 0 and each internal node at its
merge resolution; a branch length is the parent height minus the child
height, so the cumulative path length from any leaf to the root equals the
root's resolution. It is written from the dendrogram's tree order, where
children come by smallest leaf, so output is stable. Forests emit one tree
per line. JSON reads a dendrogram through the same tree order, so both
refuse malformed merges with one error, and it writes only blocks of its
own leaves. Labels holding a format's metacharacters are quoted: single
quotes in Newick, standard CSV quoting, and escaped quotes and backslashes
in DOT.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .hierarchy import Dendrogram, Partition, Ultrametric, _blocks
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

    Written along the tree order by the block walk ``to_dendrogram`` reads, one
    line per tree. Malformed merges raise DendrogramStructureError.
    """
    texts = [_newick_label(str(leaf)) for leaf in d.leaves]  # per leaf, then per closed block by its first leaf
    heights, lines = [0.0] * len(texts), []
    for top, children in _blocks(*d._tree_order):
        if top == math.inf:  # the trees: a root sits at its own height, so its branch length is 0; a lone leaf has none
            lines = [texts[c] + (":0;" if heights[c] > 0 else ";") for c in children]
        else:
            branches = [f"{texts[c]}:{format_value(top - heights[c])}" for c in children]
            texts[children[0]], heights[children[0]] = "(" + ",".join(branches) + ")", top
    return "\n".join(lines) + "\n"


def _json_number(value: float) -> str:
    """A matrix cell as json.dumps writes it, which is repr for a finite float, and ±inf as a string."""
    return f'"{format_value(value)}"' if math.isinf(value) else repr(value)


def _json_resolution(value) -> str:
    """A replayed resolution, a positive finite real: an int as json writes it, any other as its float."""
    return int.__repr__(value) if isinstance(value, int) else repr(float(value))


def _json_list(texts, depth: int) -> str:
    """JSON texts, any iterable of them, laid out as ``json.dumps(indent=2)`` lays out a list ``depth`` deep."""
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(texts)  # a JSON text is never empty, so only an empty list joins to ""
    return "[" + pad + body + "\n" + "  " * depth + "]" if body else "[]"


def dendrogram_json(u: Ultrametric, d: Dendrogram) -> str:
    """JSON document with labels, merge events, and the full matrix.

    ``d`` is read through the tree order Newick reads, so malformed merges
    raise the same DendrogramStructureError; a ``d`` whose leaves are not
    ``u.labels`` raises ValueError. The matrix is written as it is.
    Laid out as ``json.dumps(indent=2, sort_keys=True)`` lays it out, joined
    from one text per label and per distinct matrix value: with an indent,
    json would run its pure-Python encoder over the whole document.
    Resolutions other than int and float are written as their float.
    """
    d._tree_order  # the replay's check, read as newick reads it
    if tuple(d.leaves) != u.labels:
        raise ValueError(f"the dendrogram's {len(d.leaves)} leaves are not the ultrametric's {u.n} labels")
    texts = {label: json.dumps(label) for label in u.labels}
    events = []
    for event in d.merges:
        blocks = [_json_list(map(texts.__getitem__, block), 4) for block in event.blocks]
        events.append(f'{{\n      "blocks": {_json_list(blocks, 3)},\n'
                      f'      "resolution": {_json_resolution(event.resolution)}\n    }}')
    rows = [_json_list(row, 2) for row in _format_array(u.dist, _json_number).tolist()]
    head = f'{{\n  "labels": {_json_list(texts.values(), 1)},\n  "matrix": '
    tail = f',\n  "merges": {_json_list(events, 1)}\n}}\n'
    if not rows:
        return head + "[]" + tail
    # The matrix rows, head and tail are joined at once: a matrix block joined
    # apart would be a second copy of most of the document.
    rows[0] = head + "[\n    " + rows[0]
    rows[-1] += "\n  ]" + tail
    return ",\n    ".join(rows)


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
