import math
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dioidclust import (
    Dendrogram,
    DendrogramStructureError,
    InvalidUltrametricError,
    MergeEvent,
    Network,
    Ultrametric,
    cut_at_resolution,
    dioid_product,
    from_dendrogram,
    graft_rr_invalid,
    nonreciprocal,
    reciprocal,
    to_dendrogram,
    validate_ultrametric,
)

from conftest import method_battery, random_network
import dioidclust.hierarchy
from dioidclust.exports import _newick_label, newick
from dioidclust.hierarchy import Partition, _sorted_blocks
from dioidclust.methods import run_method
from dioidclust.network import format_value


CYCLE4_RECIPROCAL = np.array([
    [0.0, 3.0, 5.0, 5.0],
    [3.0, 0.0, 5.0, 5.0],
    [5.0, 5.0, 0.0, 2.0],
    [5.0, 5.0, 2.0, 0.0],
])


def test_validate_accepts_cycle4_reciprocal():
    report = validate_ultrametric(CYCLE4_RECIPROCAL, 0.0)
    assert report.is_valid
    assert not report.violations


def test_validate_flags_eq9_style_graft(cycle4):
    counterexample = graft_rr_invalid(cycle4, 4.0)
    report = counterexample.report
    assert not report.is_valid
    triples = {(x, via, y) for x, via, y, _, _ in report.violations}
    assert ("a", "c", "b") in triples
    entry = [v for v in report.violations if (v[0], v[1], v[2]) == ("a", "c", "b")][0]
    assert entry[3] == 3.0 and entry[4] == 1.0


def test_validate_flags_zero_off_diagonal():
    m = np.array([[0.0, 0.0], [0.0, 0.0]])
    report = validate_ultrametric(m, 0.0)
    assert not report.is_valid
    assert not report.positive_off_diagonal


def test_validate_flags_asymmetry_and_diagonal():
    m = np.array([[0.0, 2.0], [3.0, 0.0]])
    assert not validate_ultrametric(m, 0.0).symmetric
    m2 = np.array([[1.0, 2.0], [2.0, 0.0]])
    assert not validate_ultrametric(m2, 0.0).zero_diagonal


def test_validate_triple_scan_agrees_with_idempotency(rng):
    # Any symmetric zero-diagonal matrix: idempotent iff no violating triple.
    for _ in range(40):
        n = int(rng.integers(2, 7))
        m = rng.uniform(0.1, 5, (n, n))
        m = np.maximum(m, m.T)
        np.fill_diagonal(m, 0.0)
        report = validate_ultrametric(m, 0.0)
        idempotent = np.array_equal(dioid_product(m, m), m)
        assert report.idempotent == idempotent == (not report.violations)


def test_violations_match_a_literal_triple_scan(rng):
    # Ties, +inf, nonzero diagonals and negative entries, at several tolerances.
    def triple_scan(m, tol):
        found = []
        for i in range(len(m)):
            for j in range(len(m)):
                bounds = np.maximum(m[i, :], m[:, j])
                if i != j and m[i, j] > bounds.min() + tol and len(found) < 20:
                    found.append((str(i), str(int(np.argmin(bounds))), str(j), m[i, j], bounds.min()))
        return tuple(found)

    for trial in range(150):
        n = int(rng.integers(1, 9))
        m = rng.integers(0, 4, (n, n)).astype(float) if trial % 2 else rng.uniform(0, 5, (n, n))
        m[rng.random((n, n)) < 0.2] = np.inf
        if trial % 3 == 0:
            np.fill_diagonal(m, 0.0)
        if trial % 5 == 0:
            m[rng.random((n, n)) < 0.3] *= -1
        for tol in (0.0, 1e-9, 0.5):
            assert validate_ultrametric(m, tol).violations == triple_scan(m, tol)


def test_validation_cap_is_twenty(rng):
    m = rng.uniform(10, 20, (30, 30))
    m = np.maximum(m, m.T)
    np.fill_diagonal(m, 0.0)
    m[0, 1] = m[1, 0] = 1000.0  # guarantees violations everywhere
    report = validate_ultrametric(m, 0.0)
    assert len(report.violations) == 20


def test_to_dendrogram_cycle4_reciprocal(cycle4):
    d = to_dendrogram(reciprocal(cycle4))
    assert d.leaves == ("a", "b", "c", "d")
    assert [e.resolution for e in d.merges] == [2.0, 3.0, 5.0]
    assert d.merges[0].blocks == (("c", "d"),)
    assert d.merges[1].blocks == (("a", "b"),)
    assert d.merges[2].blocks == (("a", "b", "c", "d"),)
    assert d.roots == (("a", "b", "c", "d"),)


def test_to_dendrogram_cycle4_nonreciprocal(cycle4):
    d = to_dendrogram(nonreciprocal(cycle4))
    assert len(d.merges) == 1
    assert d.merges[0] == MergeEvent(1.0, (("a", "b", "c", "d"),))


def test_to_dendrogram_single_leaf():
    u = Ultrametric(("solo",), np.zeros((1, 1)))
    d = to_dendrogram(u)
    assert d.merges == ()
    assert d.roots == (("solo",),)


def test_to_dendrogram_rejects_invalid(cycle4):
    bad = graft_rr_invalid(cycle4, 4.0)
    with pytest.raises(InvalidUltrametricError) as err:
        to_dendrogram(Ultrametric(bad.labels, bad.matrix))
    assert not err.value.report.is_valid
    with pytest.raises(InvalidUltrametricError):
        cut_at_resolution(Ultrametric(bad.labels, bad.matrix), 4.0)


def test_round_trip_on_method_battery(rng):
    for _ in range(8):
        net = random_network(rng, n_range=(2, 8))
        for spec in method_battery():
            u = run_method(net, spec)
            d = to_dendrogram(u)
            back = from_dendrogram(d)
            assert np.array_equal(back.dist, u.dist), spec.describe()
            assert to_dendrogram(back) == d


def test_from_dendrogram_two_leaves():
    d = Dendrogram(("p", "q"), (MergeEvent(5.0, (("p", "q"),)),))
    u = from_dendrogram(d)
    assert u.dist[0, 1] == 5.0 and u.dist[1, 0] == 5.0


def test_from_dendrogram_forest_uses_infinity():
    d = Dendrogram(("p", "q", "r"), (MergeEvent(2.0, (("p", "q"),)),))
    u = from_dendrogram(d)
    assert u.dist[0, 1] == 2.0
    assert u.dist[0, 2] == np.inf and u.dist[1, 2] == np.inf
    assert to_dendrogram(u).roots == (("p", "q"), ("r",))


def test_from_dendrogram_rejects_non_nested():
    def events(*pairs):
        return tuple(MergeEvent(r, blocks) for r, blocks in pairs)

    malformed = [
        # splits the existing {p, q} block
        (("p", "q", "r"), events((1.0, (("p", "q"),)), (2.0, (("q", "r"),))), "union of existing blocks"),
        (("p", "q", "r"), events((2.0, (("p", "q"),)), (1.0, (("p", "q", "r"),))), "decrease"),
        (("p", "q", "p"), (), "duplicate leaf labels"),
        (("p", "q", "r"), events((1.0, (("p", "s"),))), "unknown leaves"),
        (("p", "q", "r"), events((1.0, (("p", "q"),)), (2.0, (("q", "p"),))), "merges nothing new"),
        (("p", "q", "r"), events((-1.0, (("p", "q"),))), "must be positive"),
        ((1, "1"), events((1.0, ((1, "1"),))), r"^leaf '1' cannot be ordered with leaf 1$"),
        (("a", "b"), events((1.0, (("a", 1, "z"),))), r"^merge references unknown leaves \['z', 1\]$"),
    ]
    for leaves, merges, message in malformed:
        d = Dendrogram(leaves, merges)
        with pytest.raises(DendrogramStructureError, match=message):
            from_dendrogram(d)
        with pytest.raises(DendrogramStructureError, match=message):
            newick(d)
        with pytest.raises(DendrogramStructureError, match=message):
            d.roots


def test_ultrametric_value_names_an_unknown_label():
    u = Ultrametric(("a", "b"), [[0, 1], [1, 0]])
    assert u.value("a", "b") == 1.0 and u.value("b", "b") == 0.0
    with pytest.raises(KeyError, match="unknown label 'z'"):
        u.value("a", "z")
    with pytest.raises(KeyError, match="unknown label 'y'"):
        u.value("y", "a")


def test_cut_cycle4_reciprocal(cycle4):
    u = reciprocal(cycle4)
    assert cut_at_resolution(u, 2.5).blocks == (("a",), ("b",), ("c", "d"))
    assert cut_at_resolution(u, 0.0).blocks == (("a",), ("b",), ("c",), ("d",))
    assert cut_at_resolution(u, 5.0).blocks == (("a", "b", "c", "d"),)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="resolution"):
            cut_at_resolution(u, bad)


def test_cut_of_forest_keeps_components_apart():
    a = np.array([
        [0.0, 1.0, np.inf],
        [1.0, 0.0, np.inf],
        [np.inf, np.inf, 0.0],
    ])
    u = Ultrametric(("p", "q", "r"), a)
    assert cut_at_resolution(u, 1e9).blocks == (("p", "q"), ("r",))


def test_cuts_are_nested(rng):
    for _ in range(10):
        net = random_network(rng)
        u = reciprocal(net)
        deltas = sorted(set(u.dist[~np.eye(net.n, dtype=bool)])) + [10.0]
        previous = None
        for delta in deltas:
            part = cut_at_resolution(u, delta)
            if previous is not None:
                for block in previous.blocks:
                    assert any(set(block) <= set(bigger) for bigger in part.blocks)
            previous = part


def test_merge_resolutions_are_partition_changing_values(rng):
    for _ in range(10):
        net = random_network(rng)
        u = reciprocal(net)
        d = to_dendrogram(u)
        off = u.dist[~np.eye(net.n, dtype=bool)]
        distinct = sorted({float(v) for v in off if np.isfinite(v)})
        assert [e.resolution for e in d.merges] == distinct


def test_negative_tolerance_rejected():
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tolerance"):
            validate_ultrametric(np.zeros((2, 2)), bad)


def test_leaf_order_edge_cases():
    empty = Ultrametric((), np.zeros((0, 0)))
    assert to_dendrogram(empty) == Dendrogram((), ())
    assert cut_at_resolution(empty, 1.0).blocks == ()
    # NaN reaches the report's dioid product, which refuses it.
    with pytest.raises(ValueError, match=r"left operand has NaN at \(0, 1\)") as err:
        to_dendrogram(Ultrametric(("p", "q"), np.array([[0.0, np.nan], [np.nan, 0.0]])))
    assert not isinstance(err.value, InvalidUltrametricError)
    for off in (0.0, -0.0):
        with pytest.raises(InvalidUltrametricError) as err:
            to_dendrogram(Ultrametric(("p", "q"), np.array([[0.0, off], [off, 0.0]])))
        assert not err.value.report.positive_off_diagonal


# ---- the all-pairs route, kept as the reference for the leaf order -----------

def _product_report(m, tolerance=0.0, labels=None):
    """validate_ultrametric with the exact test failing, so the dioid product decides."""
    # A matrix of the wrong shape equals no reordered input, whatever its size.
    with mock.patch.object(dioidclust.hierarchy, "_in_leaf_order", lambda near, n: np.zeros((n + 1, n + 1))):
        return validate_ultrametric(m, tolerance, labels=labels)


def _all_pairs_dendrogram(u):
    """The product's report, then a union sweep over all n(n-1)/2 pairs in sorted order."""
    report = _product_report(u.dist, labels=u.labels)
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
            blocks = ([u.labels[k] for k in members[g]] for g in {owner[t] for t in touched})
            merges.append(MergeEvent(delta, _sorted_blocks(blocks)))
    return Dendrogram(u.labels, tuple(merges))


def _tree_cut(u, delta):
    """The maximal subtrees of the all-pairs dendrogram no higher than delta."""
    if not np.isfinite(delta) or delta < 0:
        raise ValueError(f"resolution must be finite and >= 0, got {delta}")
    blocks, stack = [], _forest(_all_pairs_dendrogram(u))
    while stack:
        node = stack.pop()
        if node.height <= delta:
            blocks.append(node.leaves)
        else:
            stack.extend(node.children)
    return Partition(float(delta), _sorted_blocks(blocks))


def _outcome(route, *args):
    try:
        return route(*args)
    except ValueError as exc:
        return type(exc), str(exc)


_WEIGHTS = st.sampled_from([1.0, 2.0, 3.0, 4.0, np.inf])
_MUTATIONS = ("asymmetric", "diagonal", "zero", "negative-zero", "negative", "negative-inf", "triangle", "nan")


@st.composite
def ultrametric_candidates(draw):
    """Method outputs and random multiway dendrograms on 0..12 nodes, some mutated.

    Resolutions and weights are small integers (so ties) or +inf (so forests).
    """
    n = draw(st.integers(0, 12))
    labels = tuple(f"n{i}" for i in range(n))
    if n and draw(st.booleans()):
        a = np.array(draw(st.lists(_WEIGHTS, min_size=n * n, max_size=n * n))).reshape(n, n)
        np.fill_diagonal(a, 0.0)
        m = run_method(Network(labels, a), draw(st.sampled_from(method_battery()))).dist.copy()
    else:
        blocks, merges, level = [(lab,) for lab in labels], [], 0.0
        while len(blocks) > 1 and draw(st.integers(0, 3)):  # stopping early leaves a forest
            level += draw(st.sampled_from([0.5, 1.0, 2.0]))
            groups = draw(st.lists(st.integers(0, len(blocks) - 1), min_size=len(blocks), max_size=len(blocks)))
            joined = {}
            for block, group in zip(blocks, groups):
                joined.setdefault(group, []).append(block)
            merged = [sum(parts, ()) for parts in joined.values() if len(parts) > 1]
            if merged:
                merges.append(MergeEvent(level, _sorted_blocks(merged)))
            blocks = [sum(parts, ()) for parts in joined.values()]
        m = from_dendrogram(Dendrogram(labels, tuple(merges))).dist.copy()
    mutation = n > 1 and draw(st.booleans()) and draw(st.sampled_from(_MUTATIONS))
    if mutation:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        value = {"asymmetric": m[i, j] + 1.0, "diagonal": 1.0, "zero": 0.0, "negative-zero": -0.0,
                 "negative": -1.0, "negative-inf": -np.inf, "triangle": draw(_WEIGHTS), "nan": np.nan}[mutation]
        if mutation == "diagonal":
            m[i, i] = value
        else:
            m[i, j] = value
            if mutation != "asymmetric":
                m[j, i] = value
    return Ultrametric(labels, m)


@settings(max_examples=300, deadline=None)
@given(ultrametric_candidates())
@example(Ultrametric((), np.zeros((0, 0))))
@example(Ultrametric(("p", "q", "r"), [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]))  # asymmetric below the order
@example(Ultrametric(("p", "q"), [[0.0, np.nan], [np.nan, 0.0]]))
def test_leaf_order_matches_the_all_pairs_route(u):
    expected = _outcome(_all_pairs_dendrogram, u)
    assert _outcome(to_dendrogram, u) == expected
    # Exactly the valid results pass the exact test and return its leaf order;
    # the reports agree at any tolerance.
    exact = _outcome(validate_ultrametric, u.dist, 0.0)
    assert hasattr(exact, "_leaf_order") == isinstance(expected, Dendrogram)
    for tolerance in (0.0, 0.75):
        assert _outcome(validate_ultrametric, u.dist, tolerance) == _outcome(_product_report, u.dist, tolerance)
    finite = [float(v) for v in np.unique(u.dist) if np.isfinite(v) and v >= 0]
    for delta in [0.0, *finite, *(v + 0.25 for v in finite), 1e9]:
        assert _outcome(cut_at_resolution, u, delta) == _outcome(_tree_cut, u, delta)


# ---- the node-tree replay, kept as the reference for the tree order -----------

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
                raise DendrogramStructureError(f"merge references unknown leaves {sorted(unknown, key=repr)}")
            parts = {id(current[m]): current[m] for m in members}.values()
            if len(parts) < 2:
                raise DendrogramStructureError(
                    f"block {sorted(members, key=repr)} at {format_value(event.resolution)} merges nothing new"
                )
            if sum(len(part.leaves) for part in parts) != len(members):
                raise DendrogramStructureError(
                    f"block {sorted(members, key=repr)} at {format_value(event.resolution)} "
                    "is not a union of existing blocks"
                )
            children = tuple(sorted(parts, key=lambda c: c.min_leaf))
            joined = _Node(event.resolution, children, members, children[0].min_leaf)
            for m in members:
                current[m] = joined
    roots = {id(node): node for node in current.values()}.values()
    return sorted(roots, key=lambda c: c.min_leaf)


def _reference_roots(d):
    return _sorted_blocks(root.leaves for root in _forest(d))


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


def _reference_newick(d: Dendrogram) -> str:
    # A tree's root sits at its own height, so its branch length is 0.
    lines = [_newick_tree(root) + (":0;" if root.children else ";") for root in _forest(d)]
    return "\n".join(lines) + "\n"


def _reference_from_dendrogram(d: Dendrogram) -> np.ndarray:
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
    return dist


_TREE_LABELS = ("a", "b", "B", "10", "2", "c d", "it's", "(x)", "q:1", "[z]", "m,n", "é")
_RESOLUTIONS = (-1.0, 0.0, -0.0, 0.25, 1.0, 2.0, 3.5, np.inf, np.nan)
_TREE_MUTATIONS = ("duplicate-leaf", "resolution", "extra-block", "repeat-block", "empty-block", "unknown-leaf")


@st.composite
def multiway_dendrograms(draw):
    """Dendrograms on 0..12 leaves in any order, some malformed.

    Events join several blocks at once, may repeat a resolution, may nest one
    of their blocks in another, and may stop early to leave a forest; labels
    hold Newick metacharacters.
    """
    n = draw(st.integers(0, 12))
    leaves = tuple(draw(st.permutations(_TREE_LABELS))[:n])
    blocks, merges, level = [(lab,) for lab in leaves], [], 0.0
    while len(blocks) > 1 and draw(st.integers(0, 3)):
        level += draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) if merges else 1.0
        formed = []
        for _ in range(draw(st.integers(1, 2))):  # a second round nests blocks in the first's
            groups = draw(st.lists(st.integers(0, len(blocks) - 1), min_size=len(blocks), max_size=len(blocks)))
            joined = {}
            for block, group in zip(blocks, groups):
                joined.setdefault(group, []).append(block)
            formed += [draw(st.permutations(sum(parts, ()))) for parts in joined.values() if len(parts) > 1]
            blocks = [sum(parts, ()) for parts in joined.values()]
        if formed:
            merges.append(MergeEvent(level, tuple(tuple(b) for b in formed)))
    mutation = draw(st.sampled_from((None, None) + _TREE_MUTATIONS))
    if mutation == "duplicate-leaf" and n:
        leaves += (draw(st.sampled_from(leaves)),)
    elif mutation == "resolution" and merges:
        k = draw(st.integers(0, len(merges) - 1))
        merges[k] = MergeEvent(draw(st.sampled_from(_RESOLUTIONS)), merges[k].blocks)
    elif mutation in ("extra-block", "repeat-block", "empty-block", "unknown-leaf") and n:
        block = {"extra-block": draw(st.lists(st.sampled_from(leaves), max_size=n + 1)),
                 "repeat-block": draw(st.sampled_from([b for e in merges for b in e.blocks] or [leaves[:1]])),
                 "empty-block": (),
                 "unknown-leaf": (leaves[0], "zz")}[mutation]
        k = draw(st.integers(0, len(merges)))
        resolution = merges[k].resolution if k < len(merges) else level + 1.0
        extra = MergeEvent(resolution, (tuple(block),))
        merges.insert(k, extra)
    return Dendrogram(leaves, tuple(merges))


@settings(max_examples=500, deadline=None)
@given(multiway_dendrograms())
@example(Dendrogram((), ()))
@example(Dendrogram(("p", "q", "r"), (MergeEvent(1.0, (("p", "q"), ("r", "q", "p"))),)))  # nested in one event
@example(Dendrogram(("p", "q", "r"), (MergeEvent(1.0, (("q", "p"),)), MergeEvent(1.0, (("p", "q", "r"),)))))
@example(Dendrogram(("p", "q", "r"), (MergeEvent(np.inf, (("q", "p"),)), MergeEvent(np.inf, (("p", "q", "r"),)))))
def test_tree_order_matches_the_node_tree_replay(d):
    # One Dendrogram for all three readers: a replay that raised must raise again.
    assert _outcome(newick, d) == _outcome(_reference_newick, d)
    assert _outcome(lambda d: d.roots, d) == _outcome(_reference_roots, d)
    assert (_outcome(lambda d: from_dendrogram(d).dist.tolist(), d)
            == _outcome(lambda d: _reference_from_dendrogram(d).tolist(), d))


def test_one_merge_event_over_1000_leaves_round_trips():
    leaves = tuple(f"n{i:04d}" for i in range(1000))
    d = Dendrogram(leaves, (MergeEvent(1.0, (leaves,)),))
    u = from_dendrogram(d)
    assert np.array_equal(u.dist, 1.0 - np.eye(1000))
    assert to_dendrogram(u) == d


def test_replay_runs_once_per_dendrogram():
    d = Dendrogram(("p", "q", "r"), (MergeEvent(2.0, (("p", "q"),)),))
    with mock.patch.object(dioidclust.hierarchy, "_replay", wraps=dioidclust.hierarchy._replay) as replay:
        d.roots, newick(d), from_dendrogram(d), d.roots
        assert replay.call_count == 1
    # The cached replay is not part of the value.
    assert d == Dendrogram(("p", "q", "r"), (MergeEvent(2.0, (("p", "q"),)),))
    assert hash(d) == hash(Dendrogram(d.leaves, d.merges)) and "_tree_order" not in repr(d)
    bad = Dendrogram(("p", "q"), (MergeEvent(-1.0, (("p", "q"),)),))
    for _ in range(2):
        with pytest.raises(DendrogramStructureError, match="must be positive"):
            bad.roots


def test_ultrametric_refuses_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate label 'a'"):
        Ultrametric(("a", "a"), [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="duplicate label '1'"):
        Ultrametric((1, "1"), [[0, 1], [1, 0]])


def test_validate_refuses_a_wrong_label_count():
    valid, invalid = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [2.0, 0.0]])
    for m in (valid, invalid):
        for labels in (("p",), ("p", "q", "r")):
            with pytest.raises(ValueError, match=f"{len(labels)} labels for a 2x2 matrix"):
                validate_ultrametric(m, 0.0, labels=labels)
