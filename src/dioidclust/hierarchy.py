"""Ultrametrics, dendrograms, partitions, and the maps between them.

An ultrametric matrix is symmetric, zero exactly on the diagonal, and
satisfies the strong triangle inequality u(x,y) <= max(u(x,z), u(z,y));
equivalently it is idempotent under the dioid matrix product. A dendrogram
is the same information as a merge tree: one event per distinct finite
resolution, listing the blocks newly formed at that resolution. +inf
entries are first-class and yield forests (several roots).

Both are read as one tree order: the leaves, each cluster one run and
children by smallest leaf, and the resolution joining each pair of
neighbours (+inf between trees), which fix the matrix by u(p, q) =
max(u(p, q-1), u(q-1, q)). ``validate_ultrametric`` sorts the leaves into
that order once and compares the matrix with the recurrence's; an Ultrametric
holds the order of that check, run once per result, not once per use. A
dendrogram from ``to_dendrogram`` holds it too; any other replays its merge
events once, refusing malformed ones (an event at +inf, a block nesting one
of its own resolution: neither has an ultrametric). One walk reads the
blocks off the order for ``to_dendrogram`` and Newick; roots and cuts split
it at a level, and ``from_dendrogram`` builds the matrix from it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dioid import _in_input_order, _square_by_rank
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


@dataclass(frozen=True, eq=False)
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
        index = {}  # label -> position; not a field, so repr skips it
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

    @cached_property
    def _tree_order(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """The order of one exact validate_ultrametric pass, run on first read; not a field. Failures aren't cached."""
        report = validate_ultrametric(self.dist, 0.0, labels=self.labels)
        if not report.is_valid:
            raise InvalidUltrametricError(report)
        return report._leaf_order


@dataclass(frozen=True)
class MergeEvent:
    """Blocks newly formed at one positive finite resolution, each a union of >= 2 blocks formed below it."""

    resolution: float
    blocks: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Dendrogram:
    """Nested merge structure: leaves plus one event per merging resolution, read in tree order.

    ``to_dendrogram`` hands its result the tree order it read; any other
    dendrogram replays its merges on the first read.
    """

    leaves: tuple[str, ...]
    merges: tuple[MergeEvent, ...]

    @cached_property
    def _tree_order(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """The merges replayed once, on first read, unless to_dendrogram set it.

        Not a field, so eq, hash and repr skip it.
        """
        return _replay(self)

    @property
    def roots(self) -> tuple[tuple[str, ...], ...]:
        """Blocks of the coarsest partition; more than one means a forest."""
        order, near = self._tree_order  # the trees are its runs at the highest finite level
        return _runs(self.leaves, order, near, max((r for r in near if r < math.inf), default=0))


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
    product is checked too. Both are read off one dioid square, of the
    entries' ranks, so they agree by construction; an exact ultrametric, which
    its leaves sorted once rebuild by the leaf-order recurrence, needs no
    product and is valid on every count.
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
    """Entrywise equality within tolerance; an infinite entry matches only itself."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN, but == matches it; overflow is inf
        return bool(((a == b) | (np.abs(a - b) <= tolerance)).all())


def validate_ultrametric(matrix, tolerance: float, labels=None) -> UltrametricReport:
    """Check a square matrix for the ultrametric axioms.

    Tolerance 0 is exact and appropriate for anything produced purely by
    min/max operations; methods that mix in ordinary arithmetic warrant a
    small positive tolerance. The leaves are sorted once, into tree order: an
    exact ultrametric, which its neighbour entries rebuild, needs no dioid
    product and no further scan. Any other matrix costs one O(n^3) dioid square
    of its entries' ranks, which yields the same bounds as a square of them.
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
    # Sorted by their rows, each cluster's leaves form one run: they see each outsider at one distance, above
    # their mutual ones. With the columns keyed in label order (as str; lexsort's last key is its first), a
    # cluster's smallest label leads it and its parts follow by theirs. The keys are row views of arr.
    keys = sorted(range(n), key=[str(label) for label in labels].__getitem__, reverse=True)
    order = np.lexsort([arr[i] for i in keys]) if n else np.arange(0)
    near = arr[order[:-1], order[1:]]
    exact = bool((near > 0).all()) and np.array_equal(arr, _in_input_order(order, near))
    if exact and (near > tolerance).all():  # every finding follows from exactness
        report = UltrametricReport(n=n, tolerance=tolerance, symmetric=True, zero_diagonal=True,
                                   positive_off_diagonal=True, idempotent=True)
        # Not a field, so eq, hash and repr skip it.
        object.__setattr__(report, "_leaf_order", (tuple(order.tolist()), tuple(near.tolist())))
        return report
    if np.isnan(arr).any():  # never exact, so only a matrix that failed the test above is scanned
        i, j = np.argwhere(np.isnan(arr))[0]
        raise ValueError(f"NaN entry at ({labels[i]}, {labels[j]})")
    symmetric = _matrices_close(arr, arr.T, tolerance)
    nonnegative = not (arr < 0).any()
    zero_diagonal = bool((np.abs(np.diagonal(arr)) <= tolerance).all())
    off = ~np.eye(n, dtype=bool)
    positive_off = bool((arr[off] > tolerance).all()) if n > 1 else True

    best = arr  # an exact ultrametric is its own dioid square
    if not exact:
        best = _square_by_rank(arr)  # negative entries included, which the dioid rejects
    idempotent = nonnegative and _matrices_close(best, arr, tolerance)
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


def _replay(d: Dendrogram) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Replay the merge events into trees, read off in tree order.

    Children and roots are ordered by smallest leaf, so each tree and block is
    one run. Returns the leaves in that order (as indices) and the resolution,
    as its event holds it, joining each to the next (+inf between trees).
    ``to_dendrogram``'s check sorts the leaves into the same pair, so only
    dendrograms built elsewhere are replayed.
    Raises DendrogramStructureError for ill-formed merges, a resolution that is
    not a real number (bools and Decimals included) or not positive and finite,
    and a block nesting one of its own resolution among them.
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
    # Per leaf: its block's first leaf, the next leaf and their resolution; per first leaf: last leaf, size, resolution.
    first, following, joined = list(range(n)), [-1] * n, [math.inf] * n
    last_leaf, size, formed, last = list(range(n)), [1] * n, [0.0] * n, -math.inf
    for event in d.merges:
        if not isinstance(event.resolution, numbers.Real) or isinstance(event.resolution, bool):
            raise DendrogramStructureError(f"merge resolution {event.resolution!r} is not a real number")
        if event.resolution < last:
            raise DendrogramStructureError(f"merge resolutions decrease at {format_value(event.resolution)}")
        if not 0 < event.resolution < math.inf:
            raise DendrogramStructureError("merge resolutions must be positive and finite")
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
            if event.resolution in [formed[p] for p in parts]:
                raise DendrogramStructureError(f"block {sorted(members, key=repr)} at {format_value(event.resolution)}"
                                               " nests a block formed at the same resolution")
            for a, b in zip(parts, parts[1:]):
                following[last_leaf[a]], joined[last_leaf[a]] = b, event.resolution
            last_leaf[parts[0]], size[parts[0]], formed[parts[0]] = last_leaf[parts[-1]], len(members), event.resolution
            for m in members:
                first[index[m]] = parts[0]
    order = []  # the leaves linked from each tree's first in turn
    for leaf in sorted(set(first), key=d.leaves.__getitem__):
        while leaf >= 0:
            order.append(leaf)
            leaf = following[leaf]
    return tuple(order), tuple(joined[leaf] for leaf in order[:-1])


def _blocks(order, near):
    """Each block of a tree order as it closes: its resolution, its children by first leaf; the trees last, at +inf."""
    stack = []  # open blocks, innermost last: (resolution, children); each closes at the first larger entry
    for child, join in zip(order, near + (math.inf,)):
        while stack and stack[-1][0] < join:
            height, children = stack.pop()
            children.append(child)
            yield height, children
            child = children[0]
        if stack and stack[-1][0] == join:
            stack[-1][1].append(child)
        else:
            stack.append((join, [child]))
    yield from stack


def _runs(leaves, order, near, level) -> tuple[tuple[str, ...], ...]:
    """The blocks of a tree order at ``level``: its runs between neighbour entries above it."""
    ends = [p + 1 for p, r in enumerate(near) if r > level] + [len(order)]
    return _sorted_blocks([leaves[i] for i in order[s:e]] for s, e in zip([0] + ends, ends) if s < e)


def to_dendrogram(u: Ultrametric) -> Dendrogram:
    """Merge tree of an ultrametric: one event per partition-changing resolution.

    The blocks are read off ``u._tree_order`` (its exact check, once per result, not once per use) by the walk
    Newick reads; the dendrogram holds it. An invalid u raises InvalidUltrametricError on every call.
    """
    order, near = u._tree_order
    # Per block, by its first leaf: its labels, sorted, so a closing block sorts its children's sorted runs into one.
    members = [(label,) for label in u.labels]
    formed = {}  # blocks by resolution
    for height, children in _blocks(order, near):
        if height < math.inf:
            block = []
            for c in children:
                block += members[c]
            block.sort()  # one merge of sorted runs
            members[children[0]] = block = tuple(block)
            formed.setdefault(height, []).append(block)
    # Blocks of one event are disjoint, so sorting them compares first labels only.
    merges = (MergeEvent(delta, tuple(sorted(formed[delta]))) for delta in sorted(formed))
    d = Dendrogram(u.labels, tuple(merges))
    object.__setattr__(d, "_tree_order", (order, near))
    return d


def from_dendrogram(d: Dendrogram, provenance: Provenance | None = None) -> Ultrametric:
    """Ultrametric of a dendrogram: pair distance is its first co-clustering.

    Exact inverse of to_dendrogram. Cross-root pairs of a forest get +inf.
    Raises DendrogramStructureError for non-nested or ill-formed merges.
    """
    return Ultrametric(d.leaves, _in_input_order(*d._tree_order), provenance=provenance)


def cut_at_resolution(u: Ultrametric, delta: float) -> Partition:
    """Blocks of nodes within resolution delta of each other.

    The blocks are the runs of ``u._tree_order`` (its exact check, once per result, not once per use) between
    neighbour entries above delta. An invalid u raises InvalidUltrametricError on every call.
    """
    if not math.isfinite(delta) or delta < 0:
        raise ValueError(f"resolution must be finite and >= 0, got {delta}")
    return Partition(float(delta), _runs(u.labels, *u._tree_order, delta))
