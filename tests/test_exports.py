import io
import json
import math

import numpy as np
from hypothesis import given, settings
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
    dendrogram_json,
    matrix_csv,
    newick,
    partition_json,
    partition_text,
    threshold_dot,
)
from dioidclust.methods import parse_method_spec, run_methods
from dioidclust.network import _csv_field, format_value

from conftest import DATA


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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(_VALUES, min_size=n * n, max_size=n * n), st.lists(_VALUES, min_size=1, max_size=3))))
def test_writers_match_on_generated_ultrametrics(case):
    n, entries, deltas = case
    a = np.array(entries).reshape(n, n)
    np.fill_diagonal(a, 0.0)
    _assert_writers_match(Network(tuple(f"n{i}" for i in range(n)), a), deltas)


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
