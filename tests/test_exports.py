import io
import json
import math
import numbers
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dioidclust import (
    Dendrogram,
    MergeEvent,
    Network,
    Ultrametric,
    cut_at_resolution,
    graft_rnr,
    load_network,
    nonreciprocal,
    reciprocal,
    save_network,
    semi_reciprocal,
    to_dendrogram,
)
from dioidclust.cli import main
from dioidclust.exports import (
    _json_number,
    _newick_label,
    dendrogram_json,
    matrix_csv,
    newick,
    partition_json,
    partition_text,
    threshold_dot,
)
from dioidclust.hierarchy import DendrogramStructureError, _sorted_blocks
from dioidclust.methods import parse_method_spec, run_method, run_methods
from dioidclust.network import _csv_field, _format_array, format_value

from conftest import DATA, method_battery


def test_cycle4_reciprocal_newick_golden(cycle4):
    d = to_dendrogram(reciprocal(cycle4))
    assert newick(d) == (DATA / "golden_cycle4_reciprocal.nwk").read_text()
    assert newick(d) == "((a:3,b:3):2,(c:2,d:2):3):0;\n"


def test_cycle4_reciprocal_json_golden(cycle4):
    u = reciprocal(cycle4)
    assert dendrogram_json(u, to_dendrogram(u)) == (DATA / "golden_cycle4_reciprocal.json").read_text()


def test_cycle4_graft_json_golden(cycle4):
    u = graft_rnr(cycle4, 4.0)
    payload = dendrogram_json(u, to_dendrogram(u))
    assert payload == (DATA / "golden_cycle4_graft_rnr4.json").read_text()
    doc = json.loads(payload)
    assert [m["resolution"] for m in doc["merges"]] == [1.0, 5.0]


def test_sweep8_semi_reciprocal_goldens(sweep8):
    u = semi_reciprocal(sweep8, 3)
    d = to_dendrogram(u)
    assert newick(d) == (DATA / "golden_sweep8_sr3.nwk").read_text()
    assert dendrogram_json(u, d) == (DATA / "golden_sweep8_sr3.json").read_text()


def test_newick_leaf_to_root_sums_equal_root_height(cycle4):
    d = to_dendrogram(reciprocal(cycle4))
    text = newick(d).strip().rstrip(";")

    sums = {}

    def parse(chunk, base):
        if not chunk.startswith("("):
            name, ln = chunk.rsplit(":", 1)
            sums[name] = base + float(ln)
            return
        close = chunk.rindex(")")
        inner, ln = chunk[1:close], float(chunk[close + 2 :])
        depth, cur, parts = 0, "", []
        for ch in inner:
            depth += ch == "("
            depth -= ch == ")"
            if ch == "," and depth == 0:
                parts.append(cur)
                cur = ""
            else:
                cur += ch
        parts.append(cur)
        for part in parts:
            parse(part, base + ln)

    parse(text, 0.0)
    assert sums == {"a": 5.0, "b": 5.0, "c": 5.0, "d": 5.0}


def test_newick_single_leaf():
    d = to_dendrogram(Ultrametric(("solo",), np.zeros((1, 1))))
    assert newick(d) == "solo;\n"


def test_newick_forest_emits_one_tree_per_root():
    d = Dendrogram(("p", "q", "r"), (MergeEvent(2.0, (("p", "q"),)),))
    assert newick(d) == "(p:2,q:2):0;\nr;\n"


def test_newick_renders_a_2000_level_chain():
    # Leaf k joins at resolution k, so the tree is 1999 merges deep.
    leaves = tuple(f"x{k}" for k in range(2000))
    merges = tuple(MergeEvent(float(k), (leaves[: k + 1],)) for k in range(1, 2000))
    text = newick(Dendrogram(leaves, merges))
    assert text.startswith("(" * 1999 + "x0:1,x1:1):1,x2:2):1,x3:3)")
    assert text.endswith("):1,x1999:1999):0;\n")
    assert text.count("(") == text.count(")") == 1999


def test_newick_quotes_labels_with_metacharacters():
    net = load_network("a b\tc:1\t1\nc:1\t(d)\t2\n(d)\ta b\t3\nc:1\ta b\t2\n", fmt="edge-list")
    assert newick(to_dendrogram(nonreciprocal(net))) == "('(d)':3,('a b':2,'c:1':2):1):0;\n"
    d = Dendrogram(("it's", "q"), (MergeEvent(1.0, (("it's", "q"),)),))
    assert newick(d) == "('it''s':1,q:1):0;\n"
    assert newick(Dendrogram(("[x]",), ())) == "'[x]';\n"
    # A Newick reader turns an unquoted "_" into a blank.
    assert newick(Dendrogram(("a_b", "c"), (MergeEvent(2.0, (("a_b", "c"),)),))) == "('a_b':2,c:2):0;\n"
    # Other leaves are written as text, as from_dendrogram names them.
    assert newick(Dendrogram((10, 2), (MergeEvent(1.0, ((10, 2),)),))) == "(2:1,10:1):0;\n"


def test_threshold_dot_lists_edges_at_or_below_delta(cycle4):
    dot = threshold_dot(cycle4, 2.0)
    lines = dot.splitlines()
    assert lines[0] == "digraph threshold {"
    edges = {ln.strip() for ln in lines if "->" in ln}
    a = cycle4.dissim
    expected = set()
    for i, src in enumerate(cycle4.labels):
        for j, dst in enumerate(cycle4.labels):
            if i != j and a[i, j] <= 2.0:
                expected.add(f'"{src}" -> "{dst}" [label="{int(a[i, j])}"];')
    assert edges == expected
    assert '"a" -> "b" [label="1"];' in edges
    assert len(edges) == 5  # the four cost-1 cycle edges plus d -> c at 2


def test_matrix_csv_round_trips_through_loader(cycle4):
    u = reciprocal(cycle4)
    text = matrix_csv(u.labels, u.dist)
    again = load_network(text)
    assert again.labels == u.labels
    assert np.array_equal(again.dissim, u.dist)


def test_dot_escapes_quotes_and_backslashes():
    net = Network(('a"b', "c\\d"), np.array([[0.0, 1.0], [2.0, 0.0]]))
    lines = threshold_dot(net, 1.0).splitlines()
    assert '  "a\\"b";' in lines and '  "c\\\\d";' in lines
    assert '  "a\\"b" -> "c\\\\d" [label="1"];' in lines


def test_csv_quotes_labels_and_round_trips():
    text = ',"x,y",z,"q""r"\n"x,y",0,2,inf\nz,2,0,inf\n"q""r",inf,inf,0\n'
    net = load_network(text)
    assert net.labels == ("x,y", "z", 'q"r')
    assert save_network(net) == text
    again = load_network(save_network(net))
    assert again.labels == net.labels
    assert np.array_equal(again.dissim, net.dissim)
    assert newick(to_dendrogram(reciprocal(net))) == "q\"r;\n('x,y':2,z:2):0;\n"


def test_matrix_csv_spells_infinity():
    m = np.array([[0.0, math.inf], [math.inf, 0.0]])
    assert matrix_csv(("p", "q"), m) == ",p,q\np,0,inf\nq,inf,0\n"


def test_partition_renderers(cycle4):
    part = cut_at_resolution(reciprocal(cycle4), 2.5)
    assert partition_text(part) == "2.5: {a} {b} {c,d}\n"
    doc = json.loads(partition_json(part))
    assert doc == {"resolution": 2.5, "blocks": [["a"], ["b"], ["c", "d"]]}


def test_json_matrix_encodes_infinity_as_string():
    a = np.array([
        [0.0, 1.0, math.inf],
        [1.0, 0.0, math.inf],
        [math.inf, math.inf, 0.0],
    ])
    u = Ultrametric(("p", "q", "r"), a)
    doc = json.loads(dendrogram_json(u, to_dendrogram(u)))
    assert doc["matrix"][0][2] == "inf"
    assert doc["matrix"][0][1] == 1.0


def test_json_matrix_keeps_the_sign_of_infinity():
    u = Ultrametric(("p", "q"), [[0.0, -math.inf], [math.inf, 0.0]])
    doc = json.loads(dendrogram_json(u, Dendrogram(u.labels, ())))
    assert doc["matrix"] == [[0.0, "-inf"], ["inf", 0.0]]


def test_exports_are_deterministic(sweep8):
    u = semi_reciprocal(sweep8, 3)
    d = to_dendrogram(u)
    assert newick(d) == newick(to_dendrogram(semi_reciprocal(sweep8, 3)))
    assert dendrogram_json(u, d) == dendrogram_json(u, d)


# ---- the writers against their cell-by-cell forms ----------------------------

def _matrix_csv_per_cell(labels, matrix):
    names = [_csv_field(lab) for lab in labels]
    lines = ["," + ",".join(names)]
    for i, name in enumerate(names):
        lines.append(name + "," + ",".join(format_value(v) for v in matrix[i]))
    return "\n".join(lines) + "\n"


def _dendrogram_json_per_cell(u, d):
    doc = {
        "labels": list(u.labels),
        "merges": [
            {"resolution": event.resolution, "blocks": [list(b) for b in event.blocks]}
            for event in d.merges
        ],
        "matrix": [[format_value(v) if math.isinf(v) else float(v) for v in row] for row in u.dist],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _threshold_dot_per_cell(net, delta):
    lines = ["digraph threshold {", f"  // dissimilarity threshold {format_value(delta)}"]
    names = [lab.replace("\\", "\\\\").replace('"', '\\"') for lab in net.labels]
    for name in names:
        lines.append(f'  "{name}";')
    a = net.dissim
    for i, src in enumerate(names):
        for j, dst in enumerate(names):
            if i != j and a[i, j] <= delta:
                lines.append(f'  "{src}" -> "{dst}" [label="{format_value(a[i, j])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _compare_columns_per_cell(net, methods):
    rows, cols = np.triu_indices(net.n, 1)
    results = run_methods(net, [parse_method_spec(m) for m in methods])
    return [[format_value(v) for v in res.dist[rows, cols].tolist()] for res in results]


def _assert_writers_match(net, deltas):
    u = reciprocal(net)
    d = to_dendrogram(u)
    assert matrix_csv(net.labels, net.dissim) == _matrix_csv_per_cell(net.labels, net.dissim)
    assert matrix_csv(u.labels, u.dist) == _matrix_csv_per_cell(u.labels, u.dist)
    assert dendrogram_json(u, d) == _dendrogram_json_per_cell(u, d)
    for delta in deltas:
        assert threshold_dot(net, delta) == _threshold_dot_per_cell(net, delta)


ULP = np.nextafter(1.0, 2.0)


def test_writers_match_on_negative_zero_diagonal():
    a = np.array([[-0.0, 1.0, ULP], [2.0, 0.0, 1.0], [1.0, 3.0, -0.0]])
    net = Network(("p", "q", "r"), a)
    u = Ultrametric(net.labels, [[-0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, -0.0]])
    d = to_dendrogram(u)
    assert dendrogram_json(u, d) == _dendrogram_json_per_cell(u, d)
    assert "-0.0" in dendrogram_json(u, d)
    cells = Ultrametric(u.labels, [[-0.0, math.inf, 5e-324], [-math.inf, 0.0, 1e22], [1e22, 5e-324, -0.0]])
    assert dendrogram_json(cells, d) == _dendrogram_json_per_cell(cells, d)  # the matrix is written as it is
    assert matrix_csv(u.labels, u.dist) == _matrix_csv_per_cell(u.labels, u.dist)
    _assert_writers_match(net, [0.0, 1.0, ULP, math.inf])


def test_writers_match_on_forests_small_networks_and_ulp_neighbours():
    inf = math.inf
    forest = np.array([[0.0, 1.0, inf, inf], [ULP, 0.0, inf, inf], [inf, inf, 0.0, 2.0], [inf, 1e16, 1e-7, 0.0]])
    _assert_writers_match(Network(("a", "b", "c", "d"), forest), [1.0, ULP, 2.0, inf])
    _assert_writers_match(Network(("solo",), np.zeros((1, 1))), [0.0, 1.0])
    _assert_writers_match(Network((), np.zeros((0, 0))), [1.0])


def test_writers_match_on_labels_that_need_quoting():
    labels = ('x,y', 'q"r', "back\\slash", "new\nline", "\u00e9t\u00e9", "it's (a):b")
    a = np.full((6, 6), 2.0)
    a[np.arange(5), np.arange(1, 6)] = [1.0, ULP, 0.5, 3.0, 1.0]
    np.fill_diagonal(a, 0.0)
    _assert_writers_match(Network(labels, a), [1.0, 2.0])


_VALUES = st.one_of(st.sampled_from([1.0, ULP, 0.1, 0.30000000000000004, 1e16, 1e-7, math.inf]),
                    st.floats(min_value=5e-324, allow_infinity=True))


# Quotes, backslashes, control characters, non-ASCII and astral characters (escaped as surrogate pairs in JSON).
_LABELS = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t/\u00e9\u20ac \U0001f600\U00010000'), st.characters()),
                  min_size=1, max_size=4).filter(str.strip)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.lists(_LABELS, min_size=n, max_size=n, unique=True),
    st.lists(_VALUES, min_size=n * n, max_size=n * n), st.lists(_VALUES, min_size=1, max_size=3))))
def test_writers_match_on_generated_ultrametrics(case):
    labels, entries, deltas = case
    n = len(labels)
    a = np.array(entries).reshape(n, n)
    np.fill_diagonal(a, 0.0)
    _assert_writers_match(Network(tuple(labels), a), deltas)


def test_compare_columns_match_per_cell(tmp_path):
    inf = math.inf
    a = np.array([[0.0, 1.0, inf, 0.1], [ULP, 0.0, 3.0, inf], [inf, 2.0, 0.0, 1e-7], [0.3, inf, 1.0, 0.0]])
    net = Network(("a", "b", "c", "d"), a)
    path = tmp_path / "net.csv"
    path.write_text(save_network(net))
    methods = ["reciprocal", "nonreciprocal", "semi-reciprocal:2"]
    out = io.StringIO()
    argv = ["compare", "--input", str(path)] + [arg for m in methods for arg in ("--method", m)]
    assert main(argv, stdout=out, stderr=io.StringIO()) == 0
    table = [line.split() for line in out.getvalue().splitlines()[1:]]
    assert [row[1:-1] for row in table] == [list(c) for c in zip(*_compare_columns_per_cell(net, methods))]


def test_dendrogram_json_writes_every_real_resolution():
    u = Ultrametric(("p", "q", "r"), [[0.0, 3.0, math.inf], [3.0, 0.0, math.inf], [math.inf, math.inf, 0.0]])
    for resolution, written in ((3, 3), (3.0, 3.0), (Fraction(3, 1), 3.0), (np.float32(3.0), 3.0)):
        d = Dendrogram(u.labels, (MergeEvent(resolution, (("p", "q"),)),))
        expected = Dendrogram(u.labels, (MergeEvent(written, (("p", "q"),)),))
        assert dendrogram_json(u, d) == _dendrogram_json_per_cell(u, expected), type(resolution)
        assert json.loads(dendrogram_json(u, d))["merges"][0]["resolution"] == 3.0
        assert d.roots == (("p", "q"), ("r",)) and newick(d) == "(p:3,q:3):0;\nr;\n"


# ---- merge events and their JSON against the builders they replaced ---------

def _sliced_to_dendrogram(u):
    """to_dendrogram as it built blocks before: each one sliced out of the leaf order and sorted label by label."""
    order, near = u._tree_order
    labels = [u.labels[i] for i in order]
    following, joined, last = [-1] * u.n, [math.inf] * u.n, list(range(u.n))
    formed, stack, roots = {}, [], []
    for p, (child, delta) in enumerate(zip(order, near + (math.inf,))):
        start = p
        while stack and stack[-1][0] < delta:
            height, start, children = stack.pop()
            formed.setdefault(height, []).append(labels[start:p + 1])
            children.append(child)
            children.sort(key=u.labels.__getitem__)
            for a, b in zip(children, children[1:]):
                following[last[a]], joined[last[a]] = b, height
            child, last[children[0]] = children[0], last[children[-1]]
        if delta == math.inf:
            roots.append(child)
            continue
        if not stack or stack[-1][0] != delta:
            stack.append((delta, start, []))
        stack[-1][2].append(child)
    merges = (MergeEvent(delta, _sorted_blocks(formed[delta])) for delta in sorted(formed))
    d = Dendrogram(u.labels, tuple(merges))
    object.__setattr__(d, "_tree_order", _linked_order(sorted(roots, key=u.labels.__getitem__), following, joined))
    return d


def _linked_order(heads, following, joined):
    order = []
    for leaf in heads:
        while leaf >= 0:
            order.append(leaf)
            leaf = following[leaf]
    return tuple(order), tuple(joined[leaf] for leaf in order[:-1])


def _json_list_of_texts(texts, depth):
    if not texts:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(texts) + "\n" + "  " * depth + "]"


def _dendrogram_json_label_by_label(u, d):
    """dendrogram_json as it wrote merges before: a lookup per label and json.dumps per resolution."""
    texts = {label: json.dumps(label) for label in u.labels}
    events = []
    for event in d.merges:
        resolution = event.resolution
        if isinstance(resolution, numbers.Real) and not isinstance(resolution, (int, float)):
            resolution = float(resolution)
        blocks = [_json_list_of_texts([texts.get(m) or json.dumps(m) for m in b], 4) for b in event.blocks]
        events.append(f'{{\n      "blocks": {_json_list_of_texts(blocks, 3)},\n'
                      f'      "resolution": {json.dumps(resolution)}\n    }}')
    rows = [_json_list_of_texts(row, 2) for row in _format_array(u.dist, _json_number).tolist()]
    matrix = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
    return (f'{{\n  "labels": {_json_list_of_texts(list(texts.values()), 1)},\n  "matrix": {matrix},\n'
            f'  "merges": {_json_list_of_texts(events, 1)}\n}}\n')


# String order differs from input order ("n10" < "n2"), with non-ASCII, astral and quoted labels.
_ORDER_LABELS = ("n0", "n1", "n2", "n10", "n11", "n20", "Z", "a", "\u00e9", "\u00df", "\u65e5", "\U0001f600",
                 "'q'", 'x,"y"', "back\\slash", "c d")
_TIED_WEIGHTS = st.sampled_from([1.0, 2.0, 3.0, float(np.nextafter(2.0, 3.0)), math.inf])  # ties and forests


@st.composite
def relabeled_results(draw):
    """A method's result on 1..10 nodes with tied and +inf weights, under labels drawn in any order."""
    n = draw(st.integers(1, 10))
    labels = tuple(draw(st.permutations(_ORDER_LABELS))[:n])
    a = np.array(draw(st.lists(_TIED_WEIGHTS, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(a, 0.0)
    return run_method(Network(labels, a), draw(st.sampled_from(method_battery())))


@settings(max_examples=300, deadline=None)
@given(relabeled_results(), st.sampled_from([int, Fraction, np.float64, np.int64, bool]))
@example(Ultrametric((), np.zeros((0, 0))), int)
@example(Ultrametric(("n2",), np.zeros((1, 1))), int)
@example(Ultrametric(("n2", "n10"), [[0.0, 2.0], [2.0, 0.0]]), int)
@example(Ultrametric(("n2", "n10"), [[0.0, math.inf], [math.inf, 0.0]]), int)
def test_merge_events_and_json_match_the_builders_they_replaced(u, user_type):
    d, expected = to_dendrogram(u), _sliced_to_dendrogram(u)
    assert d.merges == expected.merges and repr(d.merges) == repr(expected.merges)  # repr shows each type
    assert [type(e.resolution) for e in d.merges] == [type(e.resolution) for e in expected.merges]
    assert d._tree_order == expected._tree_order
    assert list(map(type, d._tree_order[1])) == list(map(type, expected._tree_order[1]))
    assert dendrogram_json(u, d) == _dendrogram_json_label_by_label(u, expected)
    # A user-built dendrogram's resolutions are written as they come, an int as an int; one Newick
    # refuses (a bool, or ints that tie two levels) is refused by the JSON writer with the same error.
    built = Dendrogram(d.leaves, tuple(MergeEvent(user_type(e.resolution), e.blocks) for e in d.merges))
    try:
        newick(built)
    except DendrogramStructureError as exc:
        with pytest.raises(DendrogramStructureError) as refused:
            dendrogram_json(u, built)
        assert str(refused.value) == str(exc)
    else:
        assert dendrogram_json(u, built) == _dendrogram_json_label_by_label(u, built)


def test_dendrogram_json_writes_blocks_of_labels_it_does_not_list():
    u = Ultrametric(("p", "q"), [[0.0, 1.0], [1.0, 0.0]])
    d = Dendrogram(("p", "q"), (MergeEvent(1, (("p", "q", 7), ())),))
    with pytest.raises(DendrogramStructureError, match=re.escape("merge references unknown leaves [7]")):
        dendrogram_json(u, d)


@pytest.mark.parametrize("merges", [
    (MergeEvent(math.nan, (("a", "b"),)),),
    (MergeEvent(2.0, (("a", "b"),)), MergeEvent(1.0, (("a", "b", "c"),))),
    (MergeEvent(1.0, (("a", "q"),)),),
    (MergeEvent(True, (("a", "b"),)),),
    (MergeEvent(1.0, (("a", "b"),)), MergeEvent(1.0, (("a", "b", "c"),))),
], ids=["nan", "decreasing", "unknown-leaf", "bool", "nested-at-own-resolution"])
def test_dendrogram_json_refuses_what_newick_refuses(merges):
    u = Ultrametric(("a", "b", "c"), [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
    d = Dendrogram(u.labels, merges)
    with pytest.raises(DendrogramStructureError) as by_newick:
        newick(d)
    with pytest.raises(DendrogramStructureError) as by_json:
        dendrogram_json(u, d)
    assert type(by_json.value) is type(by_newick.value) and str(by_json.value) == str(by_newick.value)


def test_dendrogram_json_refuses_a_dendrogram_over_other_leaves():
    u = Ultrametric(("a", "b"), [[0.0, 1.0], [1.0, 0.0]])
    for leaves in (("x", "y", "z"), ("b", "a"), ("a",)):
        with pytest.raises(ValueError, match="leaves are not the ultrametric's 2 labels"):
            dendrogram_json(u, Dendrogram(leaves, ()))


# ---- Newick against the writer it replaced ----------------------------------

def _newick_by_stack(d):
    """newick as it was written before: its own stack of open blocks along the tree order, child texts per block."""
    order, near = d._tree_order
    lines, stack = [], []  # open blocks, innermost last: (height, child texts)
    for leaf, join in zip(order, near + (math.inf,)):
        text, height = _newick_label(str(d.leaves[leaf])), 0.0
        while stack and stack[-1][0] < join:
            top, children = stack.pop()
            text, height = "(" + ",".join(children + [f"{text}:{format_value(top - height)}"]) + ")", top
        if join == math.inf:  # a root sits at its own height, so its branch length is 0; a lone leaf has none
            lines.append(text + (":0;" if height > 0 else ";"))
            continue
        if not stack or stack[-1][0] != join:
            stack.append((join, []))
        stack[-1][1].append(f"{text}:{format_value(join - height)}")
    return "\n".join(lines) + "\n"


def _written(write, d):
    try:
        return write(d)
    except ValueError as exc:  # a user-built resolution that nests a block of its own
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(relabeled_results(), st.sampled_from([int, Fraction, np.float32]))
@example(Ultrametric((), np.zeros((0, 0))), int)
@example(Ultrametric(("n2",), np.zeros((1, 1))), Fraction)
@example(Ultrametric(("n2", "n10"), [[0.0, 2.0], [2.0, 0.0]]), np.float32)
@example(Ultrametric(("n2", "n10"), [[0.0, math.inf], [math.inf, 0.0]]), int)
@example(Ultrametric(("c d", "n2", "'q'"), [[0.0, 1.5, math.inf], [1.5, 0.0, math.inf], [math.inf, math.inf, 0.0]]),
         Fraction)
def test_newick_matches_the_stack_writer_it_replaced(u, user_type):
    d = to_dendrogram(u)
    assert newick(d) == _newick_by_stack(d)
    # A user-built dendrogram is replayed, and its resolutions are written as they come.
    built = Dendrogram(d.leaves, tuple(MergeEvent(user_type(e.resolution), e.blocks) for e in d.merges))
    assert _written(newick, built) == _written(_newick_by_stack, Dendrogram(built.leaves, built.merges))
