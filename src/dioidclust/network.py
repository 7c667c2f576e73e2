"""Asymmetric dissimilarity networks and their ingestion formats.

A network is an ordered set of labeled nodes with a square matrix of
pairwise dissimilarities: zero on the diagonal, positive (possibly +inf,
possibly asymmetric) off the diagonal. Three input formats are supported:

* dense CSV: header row/column carry the labels, cells are nonnegative
  floats, "inf" (any case) or an empty cell means +inf;
* edge list: tab-separated ``src dst weight`` lines, unlisted ordered
  pairs default to +inf and the diagonal to 0;
* uses table: dense CSV of nonnegative flows, converted to dissimilarities
  by column normalization (one minus the column share of each supplier).
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Network",
    "NetworkFormatError",
    "NetworkReport",
    "UsesTable",
    "from_uses_table",
    "load_network",
    "load_uses_table",
    "save_network",
    "validate_network",
]

_REPORT_CAP = 20


class NetworkFormatError(ValueError):
    """Malformed or invariant-violating network input."""


def format_value(value: float) -> str:
    """Canonical text form of a dissimilarity: shortest round-trip decimal.

    Integral values drop the trailing ".0" so hand-written fixtures and
    saved files agree byte for byte.
    """
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def _format_array(values, fmt=format_value) -> np.ndarray:
    """``fmt`` of every entry, as an object array of the same shape.

    Each distinct float64 bit pattern is formatted once, so -0.0 and 0.0
    keep their own texts; an ultrametric has at most n distinct values.
    """
    arr = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(arr.view(np.uint64), return_inverse=True)
    texts = np.array([fmt(v) for v in bits.view(float).tolist()], dtype=object)
    return texts[inverse.reshape(arr.shape)]  # the inverse's shape differs across numpy versions


def _check_labels(labels, n: int) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise NetworkFormatError(f"{len(labels)} labels for a {n}x{n} matrix")
    seen = set()
    for position, lab in enumerate(labels, start=1):
        if not lab.strip():
            raise NetworkFormatError(f"empty label at position {position} of {n}")
        if lab in seen:
            raise NetworkFormatError(f"duplicate label {lab!r}")
        seen.add(lab)
    return labels


@dataclass(frozen=True)
class Network:
    """Labeled node set with an asymmetric dissimilarity matrix.

    Construction checks structure only (squareness, label uniqueness, no
    NaN); value invariants are enforced by load_network and reported by
    validate_network, so defective data can still be inspected.
    """

    labels: tuple[str, ...]
    dissim: np.ndarray

    def __post_init__(self):
        arr = np.array(self.dissim, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise NetworkFormatError(f"dissimilarity matrix must be square, got {arr.shape}")
        if np.isnan(arr).any():
            i, j = np.argwhere(np.isnan(arr))[0]
            raise NetworkFormatError(f"NaN dissimilarity at ({i}, {j})")
        labels = _check_labels(self.labels, arr.shape[0])
        arr.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dissim", arr)

    @property
    def n(self) -> int:
        return len(self.labels)

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.dissim, self.dissim.T))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown node {label!r}") from None


@dataclass(frozen=True)
class UsesTable:
    """Square table of nonnegative flows between labeled sectors."""

    labels: tuple[str, ...]
    flow: np.ndarray

    def __post_init__(self):
        arr = np.array(self.flow, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise NetworkFormatError(f"uses table must be square, got {arr.shape}")
        if np.isnan(arr).any():
            i, j = np.argwhere(np.isnan(arr))[0]
            raise NetworkFormatError(f"NaN flow at ({i}, {j})")
        if (arr < 0).any():
            i, j = np.argwhere(arr < 0)[0]
            raise NetworkFormatError(f"negative flow {arr[i, j]} at ({i}, {j})")
        labels = _check_labels(self.labels, arr.shape[0])
        arr.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "flow", arr)


@dataclass(frozen=True)
class NetworkReport:
    """Findings of validate_network; listings capped at 20 items each."""

    n: int
    negative_entries: tuple[tuple[str, str, float], ...] = ()
    nonzero_diagonal: tuple[tuple[str, float], ...] = ()
    zero_off_diagonal: tuple[tuple[str, str], ...] = ()
    # None when the matrix is too defective to evaluate (negative entries).
    minimax_connected: bool | None = None
    infinite_entries: int = 0

    @property
    def is_valid(self) -> bool:
        return not (self.negative_entries or self.nonzero_diagonal or self.zero_off_diagonal)

    def lines(self) -> list[str]:
        out = [f"network: {self.n} nodes, {'valid' if self.is_valid else 'INVALID'}"]
        for x, v in self.nonzero_diagonal:
            out.append(f"  nonzero diagonal at ({x}, {x}): {format_value(v)}")
        for x, y, v in self.negative_entries:
            out.append(f"  negative entry at ({x}, {y}): {v!r}")
        for x, y in self.zero_off_diagonal:
            out.append(f"  zero off-diagonal at ({x}, {y})")
        if self.minimax_connected is None:
            out.append("  minimax connectivity: not evaluated")
        elif self.minimax_connected:
            out.append("  minimax connectivity: all directed chain costs finite")
        else:
            out.append("  minimax connectivity: NOT connected (dendrograms will be forests)")
        return out


def _reaches_all(edges: np.ndarray) -> bool:
    """Whether node 0 reaches every node along a boolean adjacency matrix.

    Each node joins the frontier once, so the search reads each row once: O(n^2).
    """
    seen = np.zeros(len(edges), dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def validate_network(net: Network) -> NetworkReport:
    """Report invariant violations and minimax connectivity of a network.

    Strong minimax connectivity means every ordered pair has a finite
    directed bottleneck chain cost; without it the clustering methods
    produce +inf entries and dendrogram forests. It holds exactly when node
    0 reaches every node, and every node reaches node 0, along finite entries.
    """
    a = net.dissim
    negatives = []
    for i, j in np.argwhere(a < 0)[:_REPORT_CAP]:
        negatives.append((net.labels[i], net.labels[j], float(a[i, j])))
    nonzero_diag = []
    for i in np.nonzero(np.diagonal(a))[0][:_REPORT_CAP]:
        nonzero_diag.append((net.labels[i], float(a[i, i])))
    zero_off = []
    off_zero = (a == 0) & ~np.eye(net.n, dtype=bool)
    for i, j in np.argwhere(off_zero)[:_REPORT_CAP]:
        zero_off.append((net.labels[i], net.labels[j]))

    connected: bool | None = None
    if not negatives:
        edges = np.isfinite(a)  # a self-loop, finite or not, reaches nothing new
        connected = net.n == 0 or (_reaches_all(edges) and _reaches_all(edges.T))
    return NetworkReport(
        n=net.n,
        negative_entries=tuple(negatives),
        nonzero_diagonal=tuple(nonzero_diag),
        zero_off_diagonal=tuple(zero_off),
        minimax_connected=connected,
        infinite_entries=int(np.isinf(a).sum()),
    )


def _read_text(source) -> str:
    if hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    if isinstance(source, bytes):
        return source.decode("utf-8")
    # A path may contain commas or tabs, so only a newline marks inline
    # text; one-line text without a newline must come as bytes or a stream.
    if isinstance(source, str) and "\n" in source:
        return source
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def _plain_float(text: str) -> float:
    """float() of ASCII text without underscores: float() alone reads "1_0" as 10 and "\u0663" as 3."""
    if "_" in text or not text.isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _parse_cell(cell: str, where: str) -> float:
    cell = cell.strip()
    if not cell:
        return math.inf
    try:
        value = _plain_float(cell)
    except ValueError:
        raise NetworkFormatError(f"unparsable value {cell!r} at {where}") from None
    if math.isnan(value):
        raise NetworkFormatError(f"NaN value at {where}")
    if math.isinf(value) and any(ch.isdigit() for ch in cell):
        raise NetworkFormatError(f"value {cell!r} at {where} overflows to inf")
    return value


_PLAIN_TEXT = re.compile(r"[0-9.eE+\- ]*")


def _plain_row(cells: list[str], out: np.ndarray) -> bool:
    """Convert a row of plain finite decimals into ``out`` in one numpy call.

    Only ASCII digits, ".", "e", "E", signs and spaces may occur. False
    leaves the row to _parse_cell, which accepts or names each cell: a row
    with other text (``inf``, ``1_0``, ...), a blank or malformed cell
    (numpy raises) or a cell that overflows to inf.
    """
    if not _PLAIN_TEXT.fullmatch("".join(cells)):
        return False
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        return False
    if not np.isfinite(values).all():
        return False
    out[:] = values
    return True


def _parse_dense(text: str, what: str = "network"):
    rows = [row for row in csv.reader(io.StringIO(text)) if row and any(c.strip() for c in row)]
    if len(rows) < 2:
        raise NetworkFormatError(f"dense CSV needs a header and at least one row, got {len(rows)} lines")
    header = [c.strip() for c in rows[0][1:]]
    labels = _check_labels(header, len(header))
    n = len(labels)
    if len(rows) - 1 != n:
        raise NetworkFormatError(f"{what} has {n} columns but {len(rows) - 1} data rows")
    matrix = np.empty((n, n))
    for i, row in enumerate(rows[1:]):
        row_label = row[0].strip()
        if row_label != labels[i]:
            raise NetworkFormatError(
                f"row {i + 1} label {row_label!r} does not match column label {labels[i]!r}"
            )
        if len(row) - 1 != n:
            raise NetworkFormatError(f"row {row_label!r} has {len(row) - 1} cells, expected {n}")
        if _plain_row(row[1:], matrix[i]):
            continue
        for j, cell in enumerate(row[1:]):
            matrix[i, j] = _parse_cell(cell, f"({row_label}, {labels[j]})")
    return labels, matrix


def _parse_edge_list(text: str):
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: dict[tuple[int, int], float] = {}

    def node(name: str) -> int:
        if name not in index:
            index[name] = len(labels)
            labels.append(name)
        return index[name]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()  # leading tabs delimit fields
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise NetworkFormatError(
                f"edge list line {lineno}: expected 'src<TAB>dst<TAB>weight', got {raw!r}"
            )
        src, dst, cell = (p.strip() for p in parts)
        if not (src and dst):
            raise NetworkFormatError(f"edge list line {lineno}: empty node name in {raw!r}")
        weight = _parse_cell(cell, f"line {lineno}")
        i, j = node(src), node(dst)
        if (i, j) in edges:
            raise NetworkFormatError(f"edge list line {lineno}: duplicate edge {src!r} -> {dst!r}")
        edges[(i, j)] = weight
    if not labels:
        raise NetworkFormatError("edge list is empty")
    n = len(labels)
    matrix = np.full((n, n), math.inf)
    np.fill_diagonal(matrix, 0.0)
    for (i, j), weight in edges.items():
        matrix[i, j] = weight
    return tuple(labels), matrix


def _enforce_values(labels, matrix) -> None:
    for i in range(len(labels)):
        if matrix[i, i] != 0:
            raise NetworkFormatError(
                f"nonzero diagonal at ({labels[i]}, {labels[i]}): {format_value(matrix[i, i])}"
            )
    if (matrix < 0).any():
        i, j = np.argwhere(matrix < 0)[0]
        raise NetworkFormatError(
            f"negative entry at ({labels[i]}, {labels[j]}): {format_value(matrix[i, j])}"
        )


def load_network(source, fmt: str = "dense-csv", strict: bool = True) -> Network:
    """Parse a Network from a path, text, bytes, or open stream.

    A ``str`` is inline text when it contains a newline and a path
    otherwise; an ``os.PathLike`` is always a path.

    ``fmt`` is "dense-csv" or "edge-list". Strict mode (the default)
    rejects negative entries and nonzero diagonals with a diagnostic
    naming the offending cell; lenient mode defers those to
    validate_network.
    """
    text = _read_text(source)
    if fmt == "dense-csv":
        labels, matrix = _parse_dense(text)
    elif fmt == "edge-list":
        labels, matrix = _parse_edge_list(text)
    else:
        raise NetworkFormatError(f"unknown network format {fmt!r}")
    if strict:
        _enforce_values(labels, matrix)
    return Network(labels, matrix)


def save_network(net: Network) -> str:
    """Dense-CSV text for a network; inverse of load_network on canonical files."""
    return _matrix_csv(net.labels, net.dissim)


def _csv_field(text: str) -> str:
    """A label as one CSV field, quoted only where csv.writer would quote it."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _matrix_csv(labels, matrix) -> str:
    names = [_csv_field(lab) for lab in labels]
    lines = ["," + ",".join(names)]
    for name, row in zip(names, _format_array(matrix).tolist(), strict=True):
        lines.append(name + "," + ",".join(row))
    return "\n".join(lines) + "\n"


def load_uses_table(source) -> UsesTable:
    """Parse a uses table (dense CSV of nonnegative flows)."""
    labels, matrix = _parse_dense(_read_text(source), what="uses table")
    if np.isinf(matrix).any():
        i, j = np.argwhere(np.isinf(matrix))[0]
        raise NetworkFormatError(
            f"uses table flows must be finite, got inf at ({labels[i]}, {labels[j]})"
        )
    return UsesTable(labels, matrix)


def from_uses_table(table: UsesTable, exclude_diagonal: bool = False) -> Network:
    """Convert flows to dissimilarities by column normalization.

    The dissimilarity from supplier i to consumer j is one minus the share
    of column j's total flow contributed by i, so heavy suppliers sit
    close to their consumers; the diagonal is forced to zero. With
    ``exclude_diagonal`` the self-flow is left out of the column total.
    A zero column total makes the share undefined and is an error naming
    the sector.
    """
    flow = table.flow
    n = len(table.labels)
    totals = flow.sum(axis=0)
    if exclude_diagonal:
        totals = totals - np.diagonal(flow)
    for j in range(n):
        if totals[j] <= 0:
            raise NetworkFormatError(
                f"column for sector {table.labels[j]!r} has zero total flow; "
                "the normalization is undefined"
            )
    dissim = 1.0 - flow / totals[None, :]
    np.fill_diagonal(dissim, 0.0)
    return Network(table.labels, dissim)
