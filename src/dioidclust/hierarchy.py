"""Ultrametrics, dendrograms, partitions, and the maps between them.

An ultrametric matrix is symmetric, zero exactly on the diagonal, and
satisfies the strong triangle inequality u(x,y) <= max(u(x,z), u(z,y));
equivalently it is idempotent under the dioid matrix product. A dendrogram
is the same information as a merge tree: one event per distinct finite
resolution, listing the blocks newly formed at that resolution. +inf
entries are first-class and yield forests (several roots).

``validate_ultrametric`` sorts the leaves once, so each cluster is one run,
and compares the matrix with the one its neighbour entries build by the
recurrence u(p, q) = max(u(p, q-1), u(q-1, q)); ``to_dendrogram`` and
``cut_at_resolution`` read that order off its report. A dendrogram is read
the same way: one private replay of its merge events, run once per
dendrogram, rejects malformed merges and lists the leaves in tree order with
the block joining each pair of neighbours. Roots, Newick and the inverse
map, by the same recurrence, read that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
        labels = tuple(str(x) for x in self.labels)
        index = {}  # label -> position; not a field, so eq, hash and repr skip it
        for lab in labels:
            if lab in index:
                raise ValueError(f"duplicate label {lab!r}")
            index[lab] = len(index)
        arr.flags.writeable = False
        object.__setattr__(self, "dist", arr)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.labels)

    def value(self, x: str, y: str) -> float:
        try:
            return float(self.dist[self._index[x], self._index[y]])
        except KeyError as exc:
            raise KeyError(f"unknown label {exc.args[0]!r}") from None


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

    @cached_property
    def _tree_order(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...]]:
        """The merges replayed once, on first read; not a field, so eq, hash and repr skip it."""
        return _replay(self)

    @property
    def roots(self) -> tuple[tuple[str, ...], ...]:
        """Blocks of the coarsest partition; more than one means a forest."""
        order, joins, _ = self._tree_order
        ends = [p + 1 for p, j in enumerate(joins) if j < 0]
        return _sorted_blocks([self.leaves[i] for i in order[s:e]] for s, e in zip([0] + ends, ends))


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
    product is checked too. Both are read off one product, so they agree by
    construction; an exact ultrametric, which its leaves sorted once rebuild
    by the leaf-order recurrence, needs no product and is valid on every count.
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
    small positive tolerance. The leaves are sorted once; an exact ultrametric,
    the matrix its neighbour entries build, needs no dioid product and no
    further scan. Any other matrix costs the O(n^3) product.
    """
    if not math.isfinite(tolerance) or tolerance < 0:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    labels = tuple(str(i) for i in range(n)) if labels is None else labels
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for a {n}x{n} matrix")
    # Sorted by their rows, each cluster's leaves form one run: they see each
    # outsider at one distance, above their mutual ones.
    order = np.lexsort(arr[::-1]) if n else np.arange(0)
    near = arr[order[:-1], order[1:]]
    exact = bool((near > 0).all()) and np.array_equal(arr[np.ix_(order, order)], _in_leaf_order(near, n))
    if exact and (near > tolerance).all():  # every finding follows from exactness
        report = UltrametricReport(n=n, tolerance=tolerance, symmetric=True, zero_diagonal=True,
                                   positive_off_diagonal=True, idempotent=True)
        object.__setattr__(report, "_leaf_order", (order, near))  # not a field, so eq, hash and repr skip it
        return report
    symmetric = _matrices_close(arr, arr.T, tolerance)
    nonnegative = not (arr < 0).any()
    zero_diagonal = bool((np.abs(np.diagonal(arr)) <= tolerance).all())
    off = ~np.eye(n, dtype=bool)
    positive_off = bool((arr[off] > tolerance).all()) if n > 1 else True

    if nonnegative:  # an exact ultrametric is its own dioid square
        best = arr if exact else dioid_product(arr, arr)
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
    return UltrametricReport(n=n, tolerance=tolerance, symmetric=symmetric, zero_diagonal=zero_diagonal,
                             positive_off_diagonal=positive_off, idempotent=idempotent,
                             violations=tuple(violations), nonnegative=nonnegative)


def _sorted_blocks(groups) -> tuple[tuple[str, ...], ...]:
    blocks = [tuple(sorted(g)) for g in groups]
    blocks.sort(key=lambda b: b[0])
    return tuple(blocks)


def _replay(d: Dendrogram) -> tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...]]:
    """Replay the merge events into trees, read off in tree order.

    Children and roots are ordered by smallest leaf, so each tree and block is
    one run. Returns the leaves in that order (as indices), after each the block
    joining it to the next (counted over all events; -1 ends a tree), and each
    block's resolution. Raises DendrogramStructureError for ill-formed merges.
    """
    index = {lab: i for i, lab in enumerate(d.leaves)}
    if len(index) != len(d.leaves):
        raise DendrogramStructureError("duplicate leaf labels")
    for leaf in d.leaves[1:]:  # blocks and trees are ordered by their leaves
        try:
            leaf < d.leaves[0]
        except TypeError:
            raise DendrogramStructureError(f"leaf {leaf!r} cannot be ordered with leaf {d.leaves[0]!r}") \
                from None
    n = len(index)
    # Per leaf: its tree's first leaf, the next leaf and their block; per first leaf: last leaf, size.
    first, following, joined, last_leaf, size = list(range(n)), [-1] * n, [-1] * n, list(range(n)), [1] * n
    heights, last = [], -math.inf
    for event in d.merges:
        if event.resolution < last:
            raise DendrogramStructureError(f"merge resolutions decrease at {format_value(event.resolution)}")
        if not event.resolution > 0:
            raise DendrogramStructureError("merge resolutions must be positive")
        last = event.resolution
        for block in event.blocks:
            members = frozenset(block)
            unknown = members - index.keys()
            if unknown:
                raise DendrogramStructureError(f"merge references unknown leaves {sorted(unknown, key=repr)}")
            parts = sorted({first[index[m]] for m in members}, key=d.leaves.__getitem__)
            if len(parts) < 2:
                raise DendrogramStructureError(f"block {sorted(members, key=repr)} at "
                                               f"{format_value(event.resolution)} merges nothing new")
            if sum(size[p] for p in parts) != len(members):
                raise DendrogramStructureError(f"block {sorted(members, key=repr)} at "
                                               f"{format_value(event.resolution)} is not a union of existing blocks")
            for a, b in zip(parts, parts[1:]):
                following[last_leaf[a]], joined[last_leaf[a]] = b, len(heights)
            last_leaf[parts[0]], size[parts[0]] = last_leaf[parts[-1]], len(members)
            for m in members:
                first[index[m]] = parts[0]
            heights.append(event.resolution)
    order = []
    for leaf in sorted(set(first), key=d.leaves.__getitem__):
        while leaf >= 0:
            order.append(leaf)
            leaf = following[leaf]
    return tuple(order), tuple(joined[leaf] for leaf in order), tuple(heights)


def _in_leaf_order(near: np.ndarray, n: int) -> np.ndarray:
    """The n x n ultrametric, in leaf order, whose neighbour entries are ``near`` (+inf ones part trees)."""
    ordered = np.zeros((n, n))
    for q in range(1, n):  # u(p, q) = max(u(p, q-1), u(q-1, q)), written below the diagonal
        ordered[q, :q] = np.maximum(ordered[q - 1, :q], near[q - 1])
    return np.maximum(ordered, ordered.T)


def _checked_order(u: Ultrametric) -> tuple[np.ndarray, np.ndarray]:
    """u's leaf order and its neighbour entries, off the report of validate_ultrametric passing u exactly."""
    report = validate_ultrametric(u.dist, 0.0, labels=u.labels)
    if not report.is_valid:
        raise InvalidUltrametricError(report)
    return report._leaf_order


def to_dendrogram(u: Ultrametric) -> Dendrogram:
    """Merge tree of an ultrametric: one event per partition-changing resolution.

    This is the validation point for every result turned into a dendrogram:
    validate_ultrametric checks ``u`` exactly (tolerance 0; no dioid product
    when u is valid) and invalid input raises InvalidUltrametricError with its
    report. Each event joins the runs of u's leaf order whose neighbour entries
    equal its resolution; +inf entries leave several roots.
    """
    order, near = _checked_order(u)
    labels = [u.labels[i] for i in order]
    start, end = list(range(u.n)), list(range(u.n))  # of the run ending / starting at each leaf
    joins = np.argsort(near, kind="stable")
    joins = joins[np.isfinite(near[joins])].tolist()
    values = near[joins].tolist()
    merges, runs = [], {}
    for pos, (k, delta) in enumerate(zip(joins, values)):
        s, e = start[k], end[k + 1]
        end[s], start[e] = e, s
        runs[s] = e  # joins of one value come left to right, so a grown run keeps its key
        if pos + 1 == len(values) or values[pos + 1] != delta:
            merges.append(MergeEvent(delta, _sorted_blocks(labels[lo:hi + 1] for lo, hi in runs.items())))
            runs = {}
    return Dendrogram(u.labels, tuple(merges))


def from_dendrogram(d: Dendrogram, provenance: Provenance | None = None) -> Ultrametric:
    """Ultrametric of a dendrogram: pair distance is its first co-clustering.

    Exact inverse of to_dendrogram. Cross-root pairs of a forest get +inf.
    Raises DendrogramStructureError for non-nested or ill-formed merges.
    """
    order, joins, heights = d._tree_order
    near = np.array([heights[j] if j >= 0 else np.inf for j in joins[:-1]], dtype=float)
    dist = np.empty((len(order),) * 2)
    dist[np.ix_(order, order)] = _in_leaf_order(near, len(order))
    return Ultrametric(d.leaves, dist, provenance=provenance)


def cut_at_resolution(u: Ultrametric, delta: float) -> Partition:
    """Blocks of nodes within resolution delta of each other.

    ``u`` is validated exactly first (InvalidUltrametricError if it fails); the
    blocks are the runs of its leaf order between neighbour entries above delta.
    """
    if not math.isfinite(delta) or delta < 0:
        raise ValueError(f"resolution must be finite and >= 0, got {delta}")
    order, near = _checked_order(u)
    runs = np.split(order, np.flatnonzero(near > delta) + 1) if u.n else []
    return Partition(float(delta), _sorted_blocks([u.labels[i] for i in run] for run in runs))
