import json
import math

import numpy as np

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
from dioidclust.exports import (
    dendrogram_json,
    matrix_csv,
    newick,
    partition_json,
    partition_text,
    threshold_dot,
)

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


def test_exports_are_deterministic(sweep8):
    u = semi_reciprocal(sweep8, 3)
    d = to_dendrogram(u)
    assert newick(d) == newick(to_dendrogram(semi_reciprocal(sweep8, 3)))
    assert dendrogram_json(u, d) == dendrogram_json(u, d)
