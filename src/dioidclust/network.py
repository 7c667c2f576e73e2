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
dropped, and lines end at LF, CRLF or CR, inside quoted labels too.

Each text reader takes the common case in bulk and leaves the rest to a
reader that goes line by line and names the first fault. In a dense CSV, one
numpy screen over the text's bytes flags the rows that may hide a blank
cell; the others go straight into one np.loadtxt call per file, and flagged
rows are tested one by one (_dense_values). An edge list is read by column
unless its text holds anything the line reader treats specially
(_edge_list_by_column).

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
from itertools import chain, compress, count

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
_SCREEN_SLICE = 1 << 16  # bytes the dense screen compares at a time; 2**18-byte temporaries raised peak RSS


def _screened_lines(text: str) -> list[bool]:
    """For each line of ``text`` (split at LF), whether it holds a byte that may hide a blank cell.

    That is a space, an ASCII control but LF, a byte of non-ASCII text, or a comma that a comma or
    the line's end follows. numpy compares the UTF-8 bytes one slice at a time; no byte of a
    multi-byte character is below 0x80, so the LF bytes split the lines as ``str.split`` does.
    """
    data = np.frombuffer(text.encode(), dtype=np.uint8)
    line, found = 0, []
    for start in range(0, len(data), _SCREEN_SLICE):
        piece = data[start : start + _SCREEN_SLICE + 1]  # and the byte after the slice, which may follow a comma
        if len(piece) <= _SCREEN_SLICE:
            piece = np.append(piece, np.uint8(10))  # the text's end ends its last line
        low = np.flatnonzero(piece[:-1].view(np.int8) < 33)  # LF, a space or another control, 0x80 and above
        is_end = piece[low] == 10
        breaks = low[is_end]
        stops = np.append(breaks, len(piece) - 1) if piece[-1] == 10 else breaks
        stops = stops[stops > 0] - 1  # the byte before each LF, in this slice
        commas = piece == 44
        odd = [low[~is_end], stops[commas[stops]]]
        pairs = commas[:-1] & commas[1:]
        if pairs.any():
            odd.append(np.flatnonzero(pairs))
        found.append(line + np.searchsorted(breaks, np.concatenate(odd)))
        line += len(breaks)
    flagged = np.zeros(line + 1, dtype=bool)
    for at in found:
        flagged[at] = True
    return flagged.tolist()


def _parse_row(cells, label: str, labels) -> list[float]:
    return [_parse_cell(cell, f"({label}, {labels[j]})") for j, cell in enumerate(cells)]


def _blockable(values: str) -> bool:
    """Whether a flagged row's value text, its spaces dropped, has no blank (+inf) cell and is printable.

    A control or non-ASCII whitespace may hide a blank cell that np.loadtxt refuses.
    """
    plain = values.replace(" ", "")  # a cell of spaces only is blank too
    return plain != "" and ",," not in plain and plain[0] != "," and plain[-1] != "," and plain.isprintable()


def _dense_values(rows, labels, flags=None) -> np.ndarray:
    """The value matrix of a dense CSV's data rows, each a line of text or csv.reader's list of cells.

    ``flags`` holds one per row, and routes the rows into one np.loadtxt call or cell by cell. A row
    whose flag is False (the byte screen saw nothing odd in it) goes into the block at once; a flagged
    row goes there when _blockable, and is read cell by cell otherwise. A row of no cells, or of
    csv.reader's cells but not n of them, is read cell by cell. np.loadtxt raises at a cell it cannot
    read or at a row of a cell too many or too few, and a row it reads as non-finite ("inf", an
    overflow, "nan") is read again cell by cell. Without ``flags`` every row is read cell by cell, so
    the fault raised is the first in line order.
    """
    n = len(labels)
    matrix = np.empty((n, n))
    block_rows, block_lines = [], []
    for i, row in enumerate(rows):
        if isinstance(row, str):
            label, comma, values = row.partition(",")
            cells = None if comma else []  # a line is split at commas only when read cell by cell
        else:
            label, cells = row[0], row[1:]
            values = ",".join(cells)
        label = label.strip()
        if label != labels[i]:
            raise NetworkFormatError(f"row {i + 1} label {label!r} does not match column label {labels[i]!r}")
        # csv.reader's cells are counted first, since a comma inside one would make up for a cell too few.
        if flags is not None and (cells is None or len(cells) == n) and (not flags[i] or _blockable(values)):
            block_rows.append(i)
            block_lines.append(values)
            continue
        cells = values.split(",") if cells is None else cells
        if len(cells) != n:
            raise NetworkFormatError(f"row {label!r} has {len(cells)} cells, expected {n}")
        matrix[i] = _parse_row(cells, label, labels)
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
    """Labels and value matrix of a dense CSV, read in two stages.

    Text with a quote is split by csv.reader, and each of its rows is tested on its own. Other text
    splits at LF, and one byte screen (_screened_lines) flags the lines that need that test; only a
    flagged line can be blank. _dense_values reads the rows, and on any fault the rows are read again
    in line order, which raises the first.
    """
    if '"' in text:  # only a quote needs csv.reader; text without one splits at LF as csv.reader reads it
        try:
            rows = [row for row in csv.reader(io.StringIO(text)) if any(c.strip() for c in row)]
        except csv.Error as exc:  # a field past csv.field_size_limit()
            raise NetworkFormatError(f"dense CSV: {exc}") from None
        flags = [True] * len(rows)
    else:
        lines, flags = text.split("\n"), _screened_lines(text)
        kept = [line != "" and not (flag and _BLANK_LINE.fullmatch(line)) for line, flag in zip(lines, flags)]
        rows, flags = list(compress(lines, kept)), list(compress(flags, kept))
        del lines, kept  # not held beside the rows while they are read
    if len(rows) < 2:
        raise NetworkFormatError(f"dense CSV needs a header and at least one row, got {len(rows)} lines")
    header, rows, flags = rows[0], rows[1:], flags[1:]  # the lists with the header are not held beside these
    header = header.split(",") if isinstance(header, str) else header
    labels = _check_labels([c.strip() for c in header[1:]], len(header) - 1)
    n = len(labels)
    if len(rows) != n:
        raise NetworkFormatError(f"{what} has {n} columns but {len(rows)} data rows")
    try:
        return labels, _dense_values(rows, labels, flags)
    except ValueError:  # a fault: read again in line order, which raises the first
        return labels, _dense_values(rows, labels)


def _parse_edge_list(text: str):
    """Node ids in first-seen order and the matrix of a tab-separated edge list.

    The columnar reader takes the common case; text it leaves goes to the line reader, which
    names the first fault.
    """
    read = _edge_list_by_column(text)
    return read if read is not None else _edge_list_by_line(text)


def _edge_list_by_column(text: str):
    """The edge list read by column, or None for text the line reader treats specially.

    Each line is split once at tabs, and the columns are read whole: stripped names, ids by
    dict.fromkeys, duplicates by one set of name pairs, weights by one float map. None is returned for a
    "#" anywhere, a line without exactly three fields (a blank line, a trailing tab), a weight column
    holding "_" or non-ASCII text (float() reads "1_0" and non-ASCII digits), an empty name, a weight
    float() refuses or reads as non-finite (blank, "inf", an overflow, "nan"), and a duplicate edge.
    """
    lines = text.split("\n")
    if lines[-1] == "":  # the text's last line end
        lines.pop()
    if not lines or "#" in text or text.count("\t") != 2 * len(lines):
        return None
    columns = list(zip(*(line.split("\t") for line in lines)))
    if len(columns) != 3:  # two tabs a line on average, and zip stops at the shortest line: some line is short
        return None
    cells = "".join(columns[2])
    if "_" in cells or not cells.isascii():
        return None
    ends = list(map(str.strip, chain.from_iterable(zip(columns[0], columns[1]))))  # each line's src and dst
    index = dict(zip(dict.fromkeys(ends), count()))  # node ids in first-seen order
    if "" in index or len(set(zip(ends[0::2], ends[1::2]))) != len(lines):  # an empty name or a duplicate edge
        return None
    try:
        weights = np.fromiter(map(float, columns[2]), dtype=float, count=len(lines))
    except ValueError:
        return None
    if not np.isfinite(weights).all():
        return None
    ids = np.fromiter(map(index.__getitem__, ends), dtype=np.intp, count=len(ends))
    src, dst, m = ids[0::2], ids[1::2], len(index)
    matrix = np.full((m, m), math.inf)
    np.fill_diagonal(matrix, 0.0)
    matrix[src, dst] = weights  # a self-loop's weight replaces its 0
    return tuple(index), matrix


def _edge_list_by_line(text: str):
    """The edge-list reader line by line, which raises at the first faulty line."""
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
    A zero column total makes the share undefined, and one past the float
    range would round every share to 0; either is an error naming the sector.
    """
    flow = table.flow
    n = len(table.labels)
    if exclude_diagonal:  # the off-diagonal cells summed alone, so a large self-flow cannot round them away
        flow = flow.copy()
        np.fill_diagonal(flow, 0.0)
    with np.errstate(over="ignore"):
        totals = flow.sum(axis=0)
    for j in range(n):
        if totals[j] <= 0:
            raise NetworkFormatError(
                f"column for sector {table.labels[j]!r} has zero total flow; "
                "the normalization is undefined"
            )
        if not np.isfinite(totals[j]):
            raise NetworkFormatError(
                f"column for sector {table.labels[j]!r} has a total flow past the largest float; "
                "the normalization is undefined"
            )
    dissim = 1.0 - flow / totals[None, :]
    np.fill_diagonal(dissim, 0.0)
    return Network(table.labels, dissim)
