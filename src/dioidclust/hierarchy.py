"""Ultrametrics, dendrograms, partitions, and the maps between them.

An ultrametric matrix is symmetric, zero exactly on the diagonal, and
satisfies the strong triangle inequality u(x,y) <= max(u(x,z), u(z,y));
equivalently it is idempotent under the dioid matrix product. A dendrogram
is the same information as a merge tree: one event per distinct finite
resolution, listing the blocks newly formed at that resolution. +inf
entries are first-class and yield forests (several roots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        final = _replay(self.leaves, self.merges)
        return _sorted_blocks(final.values())


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
    capped at 20. Idempotency under the dioid product is checked too; the
    triple scan and the idempotency test agree by construction.
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

    violations = []
    if nonnegative:
        idempotent = _matrices_close(dioid_product(arr, arr), arr, tolerance)
    else:
        idempotent = False
    if not idempotent:
        # Locate offending triples for the report: u(x,y) > max(u(x,z), u(z,y)).
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                bounds = np.maximum(arr[i, :], arr[:, j])
                best = bounds.min()
                if arr[i, j] > best + tolerance:
                    k = int(np.argmin(bounds))
                    violations.append(
                        (labels[i], labels[k], labels[j], float(arr[i, j]), float(best))
                    )
                    if len(violations) >= _VIOLATION_CAP:
                        break
            if len(violations) >= _VIOLATION_CAP:
                break
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


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def groups(self) -> dict:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def _replay(leaves, merges) -> dict:
    uf = _UnionFind(leaves)
    for event in merges:
        for block in event.blocks:
            first = block[0]
            for other in block[1:]:
                uf.union(first, other)
    return uf.groups()


def to_dendrogram(u: Ultrametric) -> Dendrogram:
    """Merge tree of an ultrametric: one event per partition-changing resolution.

    Components of the threshold graph at each distinct finite value are
    merged simultaneously; +inf entries leave several roots. Invalid input
    raises InvalidUltrametricError carrying the full report.
    """
    report = validate_ultrametric(u.dist, 0.0, labels=u.labels)
    if not report.is_valid:
        raise InvalidUltrametricError(report)
    arr = u.dist
    n = u.n
    iu, ju = np.triu_indices(n, k=1)
    finite = np.isfinite(arr[iu, ju])
    pairs = sorted(
        (float(arr[i, j]), int(i), int(j))
        for i, j in zip(iu[finite], ju[finite])
    )
    uf = _UnionFind(u.labels)
    merges = []
    pos = 0
    while pos < len(pairs):
        delta = pairs[pos][0]
        touched: list[str] = []
        while pos < len(pairs) and pairs[pos][0] == delta:
            _, i, j = pairs[pos]
            pos += 1
            if uf.find(u.labels[i]) != uf.find(u.labels[j]):
                uf.union(u.labels[i], u.labels[j])
                touched.append(u.labels[i])
        if touched:
            groups = uf.groups()
            roots = {uf.find(lab) for lab in touched}
            merges.append(MergeEvent(delta, _sorted_blocks(groups[r] for r in roots)))
    return Dendrogram(u.labels, tuple(merges))


def from_dendrogram(d: Dendrogram, provenance: Provenance | None = None) -> Ultrametric:
    """Ultrametric of a dendrogram: pair distance is its first co-clustering.

    Exact inverse of to_dendrogram. Cross-root pairs of a forest get +inf.
    Raises DendrogramStructureError for non-nested or ill-formed merges.
    """
    labels = d.leaves
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise DendrogramStructureError("duplicate leaf labels")
    n = len(labels)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    current: dict[str, frozenset] = {lab: frozenset([lab]) for lab in labels}
    last = -np.inf
    for event in d.merges:
        if event.resolution < last:
            raise DendrogramStructureError(
                f"merge resolutions decrease at {format_value(event.resolution)}"
            )
        if event.resolution <= 0:
            raise DendrogramStructureError("merge resolutions must be positive")
        last = event.resolution
        for block in event.blocks:
            members = set(block)
            unknown = members - set(index)
            if unknown:
                raise DendrogramStructureError(f"merge references unknown leaves {sorted(unknown)}")
            parts = {current[m] for m in members}
            if len(parts) < 2:
                raise DendrogramStructureError(
                    f"block {sorted(members)} at {format_value(event.resolution)} merges nothing new"
                )
            covered = set().union(*parts)
            if covered != members:
                raise DendrogramStructureError(
                    f"block {sorted(members)} at {format_value(event.resolution)} "
                    "is not a union of existing blocks"
                )
            for part_a in parts:
                for part_b in parts:
                    if part_a is part_b:
                        continue
                    for x in part_a:
                        for y in part_b:
                            dist[index[x], index[y]] = event.resolution
            merged = frozenset(members)
            for m in members:
                current[m] = merged
    return Ultrametric(labels, dist, provenance=provenance)


def cut_at_resolution(u: Ultrametric, delta: float) -> Partition:
    """Blocks of nodes within resolution delta of each other.

    Transitivity of the relation u(x,y) <= delta is guaranteed by the
    strong triangle inequality.
    """
    if not math.isfinite(delta) or delta < 0:
        raise ValueError(f"resolution must be finite and >= 0, got {delta}")
    uf = _UnionFind(u.labels)
    for i, j in np.argwhere(u.dist <= delta):
        if i < j:
            uf.union(u.labels[i], u.labels[j])
    return Partition(float(delta), _sorted_blocks(uf.groups().values()))
