"""Ultrametrics, dendrograms, partitions, and the maps between them.

An ultrametric matrix is symmetric, zero exactly on the diagonal, and
satisfies the strong triangle inequality u(x,y) <= max(u(x,z), u(z,y));
equivalently it is idempotent under the dioid matrix product. A dendrogram
is the same information as a merge tree: one event per distinct finite
resolution, listing the blocks newly formed at that resolution. +inf
entries are first-class and yield forests (several roots).

``to_dendrogram`` validates each result exactly, once. One private replay
of the merge events into trees rejects malformed merges; roots, the
inverse map, cuts and the Newick exporter are all derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dioid import dioid_product
from .network import format_value

__all__ = [
    "Dendrogram",
    "DendrogramStructureError",
    "InvalidUltrametricError",
    "MergeEvent",
    "Partition",
    "Provenance",
    "Ultrametric",
    "UltrametricReport",
    "cut_at_resolution",
    "from_dendrogram",
    "to_dendrogram",
    "validate_ultrametric",
]

_VIOLATION_CAP = 20


class InvalidUltrametricError(ValueError):
    """Raised when a matrix claimed to be an ultrametric fails validation."""

    def __init__(self, report: "UltrametricReport"):
        self.report = report
        super().__init__("not a valid ultrametric:\n" + "\n".join(report.lines()))


class DendrogramStructureError(ValueError):
    """Merge events that are not nested or otherwise malformed."""


@dataclass(frozen=True)
class Provenance:
    """How an ultrametric was produced: canonical method string and node count."""

    method: str
    n: int


@dataclass(frozen=True)
class Ultrametric:
    """Symmetric zero-diagonal matrix of merge resolutions over labeled nodes."""

    labels: tuple[str, ...]
    dist: np.ndarray
    provenance: Provenance | None = None

    def __post_init__(self):
        arr = np.array(self.dist, dtype=float)
        if arr.ndim != 2 or arr.shape != (len(self.labels), len(self.labels)):
            raise ValueError(
                f"distance matrix shape {arr.shape} does not match {len(self.labels)} labels"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "dist", arr)
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    def value(self, x: str, y: str) -> float:
        return float(self.dist[self.labels.index(x), self.labels.index(y)])


@dataclass(frozen=True)
class MergeEvent:
    """Blocks newly formed at one resolution; each is a union of >= 2 older blocks."""

    resolution: float
    blocks: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Dendrogram:
    """Nested merge structure: leaves plus one event per merging resolution."""

    leaves: tuple[str, ...]
    merges: tuple[MergeEvent, ...]

    @property
    def roots(self) -> tuple[tuple[str, ...], ...]:
        """Blocks of the coarsest partition; more than one means a forest."""
        return _sorted_blocks(root.leaves for root in _forest(self))


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks covering all nodes at a given resolution."""

    resolution: float
    blocks: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class UltrametricReport:
    """Findings of validate_ultrametric.

    ``violations`` holds strong-triangle-inequality triples (x, via, y)
    where u(x, y) exceeds max(u(x, via), u(via, y)) beyond the tolerance,
    capped at 20, in row-major order of (x, y). Idempotency under the dioid
    product is checked too; both are read off one product, so they agree
    by construction.
    """

    n: int
    tolerance: float
    symmetric: bool
    zero_diagonal: bool
    positive_off_diagonal: bool
    idempotent: bool
    violations: tuple[tuple[str, str, str, float, float], ...] = ()
    nonnegative: bool = True

    @property
    def is_valid(self) -> bool:
        return (
            self.symmetric
            and self.zero_diagonal
            and self.positive_off_diagonal
            and self.idempotent
            and self.nonnegative
            and not self.violations
        )

    def lines(self) -> list[str]:
        out = [f"ultrametric: {self.n} nodes, {'valid' if self.is_valid else 'INVALID'}"
               f" (tolerance {format_value(self.tolerance)})"]
        if not self.symmetric:
            out.append("  not symmetric")
        if not self.nonnegative:
            out.append("  negative entries present")
        if not self.zero_diagonal:
            out.append("  diagonal has nonzero entries")
        if not self.positive_off_diagonal:
            out.append("  off-diagonal zeros (distinct nodes at distance 0)")
        if not self.idempotent:
            out.append("  not idempotent under the dioid product")
        for x, via, y, got, bound in self.violations:
            out.append(
                f"  triangle violation ({x}, {via}, {y}): "
                f"u({x},{y})={format_value(got)} > max bound {format_value(bound)}"
            )
        return out


def _matrices_close(a: np.ndarray, b: np.ndarray, tolerance: float) -> bool:
    """Entrywise equality, treating +inf as equal only to +inf."""
    if tolerance == 0:
        return bool(np.array_equal(a, b))
    finite_a, finite_b = np.isfinite(a), np.isfinite(b)
    if not np.array_equal(finite_a, finite_b):
        return False
    return bool((np.abs(a[finite_a] - b[finite_b]) <= tolerance).all())


def validate_ultrametric(matrix, tolerance: float, labels=None) -> UltrametricReport:
    """Check a square matrix for the ultrametric axioms.

    Tolerance 0 is exact and appropriate for anything produced purely by
    min/max operations; methods that mix in ordinary arithmetic warrant a
    small positive tolerance.
    """
    if not math.isfinite(tolerance) or tolerance < 0:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    symmetric = _matrices_close(arr, arr.T, tolerance)
    nonnegative = not (arr < 0).any()
    zero_diagonal = bool((np.abs(np.diagonal(arr)) <= tolerance).all())
    off = ~np.eye(n, dtype=bool)
    positive_off = bool((arr[off] > tolerance).all()) if n > 1 else True

    if nonnegative:
        best = dioid_product(arr, arr)
        idempotent = _matrices_close(best, arr, tolerance)
    else:
        # The dioid rejects negative entries. min and max only select, so
        # the product of the entries' ranks picks out the same bounds.
        values, ranks = np.unique(arr, return_inverse=True)
        ranks = ranks.reshape(arr.shape)
        best = values[dioid_product(ranks, ranks).astype(int)]
        idempotent = False
    # Offending triples for the report: u(x,y) > max(u(x,z), u(z,y)).
    violations = []
    for i, j in np.argwhere((arr > best + tolerance) & off)[:_VIOLATION_CAP]:
        k = int(np.argmin(np.maximum(arr[i, :], arr[:, j])))
        violations.append((labels[i], labels[k], labels[j], float(arr[i, j]), float(best[i, j])))
    return UltrametricReport(
        n=n,
        tolerance=tolerance,
        symmetric=symmetric,
        zero_diagonal=zero_diagonal,
        positive_off_diagonal=positive_off,
        idempotent=idempotent,
        violations=tuple(violations),
        nonnegative=nonnegative,
    )


def _sorted_blocks(groups) -> tuple[tuple[str, ...], ...]:
    blocks = [tuple(sorted(g)) for g in groups]
    blocks.sort(key=lambda b: b[0])
    return tuple(blocks)


class _Node(NamedTuple):
    """A dendrogram subtree: a leaf at height 0 or a merge at its resolution."""

    height: float
    children: tuple
    leaves: frozenset
    min_leaf: str


def _forest(d: Dendrogram) -> list[_Node]:
    """Replay the merge events into trees; roots and children ordered by smallest leaf.

    Raises DendrogramStructureError for non-nested or ill-formed merges.
    """
    if len(set(d.leaves)) != len(d.leaves):
        raise DendrogramStructureError("duplicate leaf labels")
    current = {lab: _Node(0.0, (), frozenset([lab]), lab) for lab in d.leaves}
    last = -math.inf
    for event in d.merges:
        if event.resolution < last:
            raise DendrogramStructureError(
                f"merge resolutions decrease at {format_value(event.resolution)}"
            )
        if not event.resolution > 0:
            raise DendrogramStructureError("merge resolutions must be positive")
        last = event.resolution
        for block in event.blocks:
            members = frozenset(block)
            unknown = members - current.keys()
            if unknown:
                raise DendrogramStructureError(f"merge references unknown leaves {sorted(unknown)}")
            parts = {id(current[m]): current[m] for m in members}.values()
            if len(parts) < 2:
                raise DendrogramStructureError(
                    f"block {sorted(members)} at {format_value(event.resolution)} merges nothing new"
                )
            if sum(len(part.leaves) for part in parts) != len(members):
                raise DendrogramStructureError(
                    f"block {sorted(members)} at {format_value(event.resolution)} "
                    "is not a union of existing blocks"
                )
            children = tuple(sorted(parts, key=lambda c: c.min_leaf))
            joined = _Node(event.resolution, children, members, children[0].min_leaf)
            for m in members:
                current[m] = joined
    roots = {id(node): node for node in current.values()}.values()
    return sorted(roots, key=lambda c: c.min_leaf)


def to_dendrogram(u: Ultrametric) -> Dendrogram:
    """Merge tree of an ultrametric: one event per partition-changing resolution.

    This is the validation point for every result turned into a dendrogram:
    ``u`` is checked exactly (tolerance 0) first, and invalid input raises
    InvalidUltrametricError carrying the full report. Components of the
    threshold graph at each distinct finite value are then merged
    simultaneously; +inf entries leave several roots.
    """
    report = validate_ultrametric(u.dist, 0.0, labels=u.labels)
    if not report.is_valid:
        raise InvalidUltrametricError(report)
    iu, ju = np.triu_indices(u.n, k=1)
    values = u.dist[iu, ju]
    order = np.argsort(values, kind="stable")
    order = order[np.isfinite(values[order])]
    pairs = list(zip(values[order].tolist(), iu[order].tolist(), ju[order].tolist()))
    owner = list(range(u.n))
    members = [[i] for i in range(u.n)]
    merges = []
    pos = 0
    while pos < len(pairs):
        delta = pairs[pos][0]
        touched = []
        while pos < len(pairs) and pairs[pos][0] == delta:
            _, i, j = pairs[pos]
            pos += 1
            a, b = owner[i], owner[j]
            if a != b:
                if len(members[a]) < len(members[b]):
                    a, b = b, a
                for k in members[b]:
                    owner[k] = a
                members[a] += members[b]
                members[b] = []
                touched.append(a)
        if touched:
            blocks = (
                [u.labels[k] for k in members[g]]
                for g in {owner[t] for t in touched}
            )
            merges.append(MergeEvent(delta, _sorted_blocks(blocks)))
    return Dendrogram(u.labels, tuple(merges))


def from_dendrogram(d: Dendrogram, provenance: Provenance | None = None) -> Ultrametric:
    """Ultrametric of a dendrogram: pair distance is its first co-clustering.

    Exact inverse of to_dendrogram. Cross-root pairs of a forest get +inf.
    Raises DendrogramStructureError for non-nested or ill-formed merges.
    """
    index = {lab: i for i, lab in enumerate(d.leaves)}
    n = len(d.leaves)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    stack = _forest(d)
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        for a, child_a in enumerate(node.children):
            rows = [index[x] for x in child_a.leaves]
            for child_b in node.children[a + 1:]:
                cols = [index[y] for y in child_b.leaves]
                dist[np.ix_(rows, cols)] = node.height
                dist[np.ix_(cols, rows)] = node.height
    return Ultrametric(d.leaves, dist, provenance=provenance)


def cut_at_resolution(u: Ultrametric, delta: float) -> Partition:
    """Blocks of nodes within resolution delta of each other.

    The blocks are the maximal subtrees of ``to_dendrogram(u)`` whose height
    is at most delta, so ``u`` is validated exactly first and an invalid
    one raises InvalidUltrametricError.
    """
    if not math.isfinite(delta) or delta < 0:
        raise ValueError(f"resolution must be finite and >= 0, got {delta}")
    blocks = []
    stack = _forest(to_dendrogram(u))
    while stack:
        node = stack.pop()
        if node.height <= delta:
            blocks.append(node.leaves)
        else:
            stack.extend(node.children)
    return Partition(float(delta), _sorted_blocks(blocks))
