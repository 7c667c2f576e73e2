"""Asymmetric dissimilarity networks and their ingestion formats.

A network is an ordered set of labeled nodes with a square matrix of
pairwise dissimilarities: zero on the diagonal, positive (possibly +inf,
possibly asymmetric) off the diagonal. Three input formats are supported:

* dense CSV: header row/column carry the labels, cells are floats,
  "inf" (any case) or an empty cell means +inf;
* edge list: tab-separated ``src dst weight`` lines, unlisted ordered pairs
  default to +inf and the diagonal to 0; a line whose first field starts
  with "#" after any spaces is a comment, so no node name may start with "#";
* uses table: dense CSV of nonnegative flows, converted to dissimilarities
  by column normalization (one minus the column share of each supplier).

Every source goes through one reader, so a file gives the same network
from a path, bytes, a stream or the command line: it is decoded as UTF-8
(a byte that is not names its line), one leading byte-order mark is
dropped, and lines end at LF, CRLF or CR, inside quoted labels too. A
dense CSV's rows without a blank cell are converted in one np.loadtxt call
per file, and the rows it reads as non-finite are read again cell by cell.

A network is checked once per object: its first finding (validate_network's
first finding line, or None) is computed on first read and kept, and strict
load_network, the methods and the oracles all read it.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from functools import cached_property

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


def _distinct_texts(values, fmt=format_value) -> tuple[list[str], np.ndarray]:
    """``fmt`` of each distinct float64 bit pattern of ``values``, and each entry's index into those texts.

    Bit patterns, not values, so -0.0 and 0.0 keep their own texts; an
    ultrametric has at most n distinct values. The index has the shape of
    ``values``.
    """
    arr = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(arr.view(np.uint64), return_inverse=True)
    return [fmt(v) for v in bits.view(float).tolist()], inverse.reshape(arr.shape)  # its shape varies by numpy


def _format_array(values, fmt=format_value) -> np.ndarray:
    """``fmt`` of every entry, as an object array of the same shape; each distinct entry is formatted once."""
    texts, index = _distinct_texts(values, fmt)
    return np.array(texts, dtype=object)[index]


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


@dataclass(frozen=True, eq=False)
class Network:
    """Labeled node set with an asymmetric dissimilarity matrix.

    Construction checks structure only (squareness, label uniqueness, no
    NaN); validate_network reports value invariants, which load_network
    and the methods refuse, so defective data can still be inspected.
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

    @cached_property
    def _finding(self) -> str | None:
        """validate_network's first finding line, or None; computed on first read, and not a field."""
        a = self.dissim
        if np.count_nonzero(a <= 0) == self.n and not np.diagonal(a).any():  # only the zero diagonal is <= 0
            return None
        return validate_network(self).lines()[1].strip()


@dataclass(frozen=True, eq=False)
class UsesTable:
    """Square table of finite nonnegative flows between labeled sectors."""

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
        if np.isinf(arr).any():
            i, j = np.argwhere(np.isinf(arr))[0]
            raise NetworkFormatError(f"uses table flows must be finite, got inf at ({labels[i]}, {labels[j]})")
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
            out.append(f"  negative entry at ({x}, {y}): {format_value(v)}")
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


def _require_valid(net: Network) -> None:
    if (finding := net._finding) is not None:
        raise ValueError(f"network violates dissimilarity invariants: {finding}")


def _read_text(source) -> str:
    """The text of a source: the one place where input is decoded and its line ends are read.

    Bytes, from a path, a ``bytes`` object or a binary stream, are decoded as UTF-8; a
    text stream's ``str`` is taken as it is. One leading byte-order mark is dropped, since
    it would otherwise start the first label, and CRLF and then a lone CR become LF, so
    a file reads the same from every source. A ``str`` holding LF or CR is inline text;
    a path may contain commas or tabs, so one-line text must come as bytes or a stream.
    """
    if hasattr(source, "read"):
        data = source.read()
    elif isinstance(source, bytes) or (isinstance(source, str) and ("\n" in source or "\r" in source)):
        data = source
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        line = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise NetworkFormatError(f"line {line}: byte 0x{data[exc.start]:02x} is not valid UTF-8") from None
    del data  # the raw bytes are not held beside the text
    text = text.removeprefix("\ufeff")
    if "\r" in text:  # one fold at a time, so that at most two copies of the text are alive
        text = text.replace("\r\n", "\n")
        text = text.replace("\r", "\n")
    return text


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


_BLANK_LINE = re.compile(r"[\s,]*")  # \s matches exactly what str.strip() removes


def _parse_row(cells, label: str, labels) -> list[float]:
    return [_parse_cell(cell, f"({label}, {labels[j]})") for j, cell in enumerate(cells)]


def _dense_values(rows, labels, screen: bool, controls: bool = False) -> np.ndarray:
    """The value matrix of a dense CSV's data rows, each a line of text or csv.reader's list of cells.

    With ``screen``, every row without a blank (+inf) cell goes into one np.loadtxt call, which raises
    at a cell it cannot read; a row it reads as non-finite ("inf", an overflow, "nan") is read again
    cell by cell, and so is every row with a blank cell, or not printable where ``controls`` (ASCII
    whitespace but spaces and line ends) or non-ASCII text may hide a blank cell np.loadtxt refuses.
    Without ``screen`` every row is read cell by cell, so the fault raised is the first in line order.
    """
    n = len(labels)
    matrix = np.empty((n, n))
    block_rows, block_lines = [], []
    for i, row in enumerate(rows):
        if isinstance(row, str):
            label, _, values = row.partition(",")
            cells, count = None, row.count(",")
        else:
            label, cells, count = row[0], row[1:], len(row) - 1
            values = ",".join(cells)  # a comma inside a cell shows as a column too many
        label = label.strip()
        if label != labels[i]:
            raise NetworkFormatError(f"row {i + 1} label {label!r} does not match column label {labels[i]!r}")
        if count != n:
            raise NetworkFormatError(f"row {label!r} has {count} cells, expected {n}")
        plain = values.replace(" ", "")  # a cell of spaces only is blank too
        if (screen and plain and ",," not in plain and plain[0] != "," and plain[-1] != ","
                and (not controls and plain.isascii() or plain.isprintable())):
            block_rows.append(i)
            block_lines.append(values)
            continue
        matrix[i] = _parse_row(values.split(",") if cells is None else cells, label, labels)
    if block_lines:
        # max_rows lets numpy allocate the block once, at its size, instead of growing a buffer.
        block = np.loadtxt(
            block_lines, delimiter=",", dtype=float, ndmin=2, comments=None, max_rows=len(block_lines)
        )
        if block.shape != (len(block_lines), n):
            raise ValueError("a block row holds a fault")
        for k in np.flatnonzero(~np.isfinite(block).all(axis=1)).tolist():
            i = block_rows[k]  # its n cells split at commas, as the block's shape shows
            block[k] = _parse_row(block_lines[k].split(","), labels[i], labels)
        if len(block_rows) == n:
            return block
        matrix[block_rows] = block
    return matrix


def _parse_dense(text: str, what: str = "network"):
    if '"' in text:  # only a quote needs csv.reader; text without one splits at LF as csv.reader reads it
        try:
            rows = [row for row in csv.reader(io.StringIO(text)) if any(c.strip() for c in row)]
        except csv.Error as exc:  # a field past csv.field_size_limit()
            raise NetworkFormatError(f"dense CSV: {exc}") from None
    else:
        rows = [line for line in text.split("\n") if not _BLANK_LINE.fullmatch(line)]
    if len(rows) < 2:
        raise NetworkFormatError(f"dense CSV needs a header and at least one row, got {len(rows)} lines")
    header = rows[0].split(",") if isinstance(rows[0], str) else rows[0]
    labels = _check_labels([c.strip() for c in header[1:]], len(header) - 1)
    n = len(labels)
    if len(rows) - 1 != n:
        raise NetworkFormatError(f"{what} has {n} columns but {len(rows) - 1} data rows")
    try:
        return labels, _dense_values(rows[1:], labels, True, any(map(text.__contains__, "\t\x0b\x0c\x1c\x1d\x1e\x1f")))
    except ValueError:  # a fault: read again in line order, which raises the first
        return labels, _dense_values(rows[1:], labels, screen=False)


def _parse_edge_list(text: str):
    index: dict[str, int] = {}  # node ids in first-seen order
    edges: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip()  # leading tabs delimit fields
        if not line.strip() or line.split("\t", 1)[0].strip().startswith("#"):  # "#" opens the first field
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise NetworkFormatError(
                f"edge list line {lineno}: expected 'src<TAB>dst<TAB>weight', got {raw!r}"
            )
        src, dst, cell = (p.strip() for p in parts)
        if not (src and dst):
            raise NetworkFormatError(f"edge list line {lineno}: empty node name in {raw!r}")
        if dst.startswith("#"):  # a line it led would be a comment, so such a source never gets here
            raise NetworkFormatError(
                f"edge list line {lineno}: node name {dst!r} starts with '#', which marks a comment line"
            )
        weight = _parse_cell(cell, f"line {lineno}")
        i, j = index.setdefault(src, len(index)), index.setdefault(dst, len(index))
        if (i, j) in edges:
            raise NetworkFormatError(f"edge list line {lineno}: duplicate edge {src!r} -> {dst!r}")
        edges[(i, j)] = weight
    if not index:
        raise NetworkFormatError("edge list is empty")
    matrix = np.full((len(index), len(index)), math.inf)
    np.fill_diagonal(matrix, 0.0)
    matrix[tuple(zip(*edges))] = list(edges.values())  # a self-loop's weight replaces its 0
    return tuple(index), matrix


def load_network(source, fmt: str = "dense-csv", strict: bool = True) -> Network:
    """Parse a Network from a path, text, bytes, or open stream.

    A ``str`` is inline text when it contains a line end (LF or CR) and a
    path otherwise; an ``os.PathLike`` is always a path. Bytes are read as
    UTF-8, and every source is read by the same rules (see the module
    docstring).

    ``fmt`` is "dense-csv" or "edge-list". Strict mode (the default)
    refuses nonzero diagonals, negative entries and off-diagonal zeros with
    validate_network's first finding, which names the cell; lenient mode
    defers those to validate_network. The network keeps that finding, so
    the methods that read it later do not compute it again.
    """
    text = _read_text(source)
    if fmt == "dense-csv":
        labels, matrix = _parse_dense(text)
    elif fmt == "edge-list":
        labels, matrix = _parse_edge_list(text)
    else:
        raise NetworkFormatError(f"unknown network format {fmt!r}")
    net = Network(labels, matrix)
    if strict and (finding := net._finding) is not None:
        raise NetworkFormatError(finding)
    return net


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
    return UsesTable(*_parse_dense(_read_text(source), what="uses table"))


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
