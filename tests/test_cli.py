import io
import json
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dioidclust.methods
from dioidclust.cli import GRAMMAR, main, parse_method_spec
from dioidclust.hierarchy import InvalidUltrametricError, Ultrametric, to_dendrogram, validate_ultrametric
from dioidclust.methods import MethodSpec, MethodSpecError

from conftest import DATA, cycle4_network, method_battery


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


CYCLE4 = str(DATA / "cycle4.csv")
SWEEP8 = str(DATA / "sweep8.csv")


# ---- method spec parsing ----------------------------------------------------

def test_parse_plain_kinds():
    assert parse_method_spec("reciprocal") == MethodSpec("reciprocal")
    assert parse_method_spec(" nonreciprocal ") == MethodSpec("nonreciprocal")
    assert parse_method_spec("single-linkage") == MethodSpec("single-linkage")


def test_parse_parameterized_kinds():
    assert parse_method_spec("semi-reciprocal:3") == MethodSpec("semi-reciprocal", t=3)
    assert parse_method_spec("intermediate:2,5") == MethodSpec("intermediate", t_fwd=2, t_bwd=5)
    assert parse_method_spec("graft-rnr:4") == MethodSpec("graft-rnr", beta=4.0)
    assert parse_method_spec("graft-rrmax:0.25") == MethodSpec("graft-rrmax", beta=0.25)
    assert parse_method_spec("graft-rr-invalid:4") == MethodSpec("graft-rr-invalid", beta=4.0)


def test_parse_convex_flat_and_nested():
    spec = parse_method_spec("convex:0.5*reciprocal+0.5*nonreciprocal")
    assert spec.kind == "convex"
    assert spec.weights == (0.5, 0.5)
    assert spec.constituents == (MethodSpec("reciprocal"), MethodSpec("nonreciprocal"))
    nested = parse_method_spec(
        "convex:0.25*semi-reciprocal:3+0.75*(convex:0.5*reciprocal+0.5*nonreciprocal)"
    )
    assert nested.constituents[1].kind == "convex"
    # canonical description round-trips through the parser
    assert parse_method_spec(nested.describe()) == nested


def test_parse_errors_carry_the_grammar():
    with pytest.raises(MethodSpecError, match="grammar"):
        parse_method_spec("fancy-clustering")
    with pytest.raises(MethodSpecError, match="grammar"):
        parse_method_spec("semi-reciprocal:two")
    with pytest.raises(MethodSpecError, match="(?s)t >= 2.*grammar"):
        parse_method_spec("semi-reciprocal:1")
    with pytest.raises(MethodSpecError, match="(?s)sum to 1.*grammar"):
        parse_method_spec("convex:0.5*reciprocal+0.6*nonreciprocal")
    for text in ("convex:0.5*(reciprocal+0.5*nonreciprocal", "reciprocal)", "((reciprocal)"):
        with pytest.raises(MethodSpecError, match="(?s)unbalanced.*grammar"):
            parse_method_spec(text)
    with pytest.raises(MethodSpecError, match="(?s)nested convex spec needs parentheses.*grammar"):
        parse_method_spec("convex:0.5*reciprocal+0.5*convex:0.5*reciprocal+0.5*nonreciprocal")
    # int() and float() would read these as 10, 3 and 10.5.
    for text in ("semi-reciprocal:1_0", "intermediate:\u0663,2", "graft-rnr:1_0.5",
                 "graft-rnr:inf", "convex:0_.5*reciprocal+0.5*nonreciprocal"):
        with pytest.raises(MethodSpecError, match="grammar"):
            parse_method_spec(text)
    code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", "semi-reciprocal:1_0")
    assert code == 1 and "grammar" in err and out == ""


def test_every_kind_round_trips_through_describe():
    specs = method_battery() + [MethodSpec("single-linkage"), MethodSpec("graft-rr-invalid", beta=4.0)]
    for spec in specs:
        assert parse_method_spec(spec.describe()) == spec, spec.describe()


# describe() writes beta >= 1e16 with a signed exponent ("1e+20"), and
# dyadic weights with many bits with a negative one ("9.5367431640625e-07").
_BETAS = st.one_of(st.floats(min_value=1e-300, max_value=1e300), st.sampled_from([1e16, 1e20, 2.0**70]))
_LEAVES = st.one_of(
    st.sampled_from(["reciprocal", "nonreciprocal", "single-linkage"]).map(MethodSpec),
    st.builds(lambda t: MethodSpec("semi-reciprocal", t=t), st.integers(2, 10**30)),
    st.builds(lambda a, b: MethodSpec("intermediate", t_fwd=a, t_bwd=b), st.integers(1, 10**30), st.integers(1, 10**30)),
    st.builds(lambda kind, b: MethodSpec(kind, beta=b), st.sampled_from(["graft-rnr", "graft-rrmax"]), _BETAS),
)


@st.composite
def _convex_specs(draw, constituents):
    subs = draw(st.lists(constituents, min_size=2, max_size=3))
    scale = 2 ** draw(st.integers(1, 60))
    cuts = sorted(draw(st.lists(st.integers(0, scale), min_size=len(subs) - 1, max_size=len(subs) - 1)))
    weights = tuple((b - a) / scale for a, b in zip([0] + cuts, cuts + [scale]))
    return MethodSpec("convex", weights=weights, constituents=tuple(subs))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.recursive(_LEAVES, _convex_specs, max_leaves=10),
    st.builds(lambda b: MethodSpec("graft-rr-invalid", beta=b), _BETAS),
))
def test_describe_parses_back_to_an_equal_spec(spec):
    assert parse_method_spec(spec.describe()) == spec


def test_describe_writes_large_hop_budgets_in_full():
    assert MethodSpec("intermediate", t_fwd=10**16 + 1, t_bwd=2).describe() == "intermediate:10000000000000001,2"
    code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", "semi-reciprocal:99999999999999999999")
    assert code == 0, err
    assert out.splitlines()[0] == "method: semi-reciprocal:99999999999999999999"


def test_parse_numbers_whole_and_whitespace_anywhere():
    assert parse_method_spec("convex:1e+0*reciprocal+0*nonreciprocal") == MethodSpec(
        "convex", weights=(1.0, 0.0), constituents=(MethodSpec("reciprocal"), MethodSpec("nonreciprocal"))
    )
    spec = parse_method_spec("convex:0.5*graft-rnr:1e+20+0.5*reciprocal")
    assert spec.constituents == (MethodSpec("graft-rnr", beta=1e20), MethodSpec("reciprocal"))
    assert parse_method_spec(" intermediate : 2 , 5 ") == MethodSpec("intermediate", t_fwd=2, t_bwd=5)
    assert parse_method_spec("( convex : 0.5 * ( reciprocal ) + 0.5 * nonreciprocal )").weights == (0.5, 0.5)


def test_parse_deep_parentheses_and_nesting():
    assert parse_method_spec("(" * 5000 + "reciprocal" + ")" * 5000) == MethodSpec("reciprocal")
    text = "convex:0.5*reciprocal+0.5*nonreciprocal"
    for _ in range(399):
        text = f"convex:0.5*({text})+0.5*nonreciprocal"
    assert parse_method_spec(text).describe() == text


# ---- cluster ----------------------------------------------------------------

def test_cluster_prints_merge_summary():
    code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", "reciprocal")
    assert code == 0
    assert "method: reciprocal" in out
    assert "  2 -> {c,d}" in out
    assert "  3 -> {a,b}" in out
    assert "  5 -> {a,b,c,d}" in out


def test_cluster_graft_json_merges_at_one_and_five(tmp_path):
    target = tmp_path / "out.json"
    code, out, err = run_cli(
        "cluster", "--input", CYCLE4, "--method", "graft-rnr:4",
        "--emit", "json", "--output", str(target),
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert [m["resolution"] for m in doc["merges"]] == [1.0, 5.0]


def test_cluster_emits_to_stdout_without_output_path():
    code, out, err = run_cli(
        "cluster", "--input", CYCLE4, "--method", "reciprocal", "--emit", "newick"
    )
    assert code == 0
    assert out.endswith("((a:3,b:3):2,(c:2,d:2):3):0;\n")


def test_cluster_refuses_invalid_graft_dendrogram():
    code, out, err = run_cli(
        "cluster", "--input", CYCLE4, "--method", "graft-rr-invalid:4", "--emit", "newick"
    )
    assert code == 2
    assert "refusing" in err
    assert "INVALID" in out  # the validity report is still printed


def test_cluster_invalid_graft_report_only_is_fine():
    code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", "graft-rr-invalid:4")
    assert code == 0
    assert "triangle violation" in out


def test_cluster_invalid_graft_csv_is_allowed(tmp_path):
    target = tmp_path / "matrix.csv"
    code, out, err = run_cli(
        "cluster", "--input", CYCLE4, "--method", "graft-rr-invalid:4",
        "--emit", "csv", "--output", str(target),
    )
    assert code == 0
    assert target.read_text().startswith(",a,b,c,d")


def test_cluster_edge_list_input(tmp_path):
    code, out, err = run_cli(
        "cluster", "--input", str(DATA / "cycle4.tsv"), "--format", "edge-list",
        "--method", "nonreciprocal",
    )
    assert code == 0
    assert "1 -> {a,b,c,d}" in out


def test_cluster_forest_warns_but_succeeds(tmp_path):
    src = tmp_path / "forest.csv"
    src.write_text(",p,q,r\np,0,1,inf\nq,1,0,inf\nr,inf,inf,0\n")
    code, out, err = run_cli("cluster", "--input", str(src), "--method", "reciprocal")
    assert code == 0
    assert "forest" in err


def test_cluster_dot_needs_delta(tmp_path):
    code, out, err = run_cli(
        "cluster", "--input", CYCLE4, "--method", "reciprocal", "--emit", "dot"
    )
    assert code == 1
    assert "--delta" in err
    target = tmp_path / "graph.dot"
    code, out, err = run_cli(
        "cluster", "--input", CYCLE4, "--method", "reciprocal",
        "--emit", "dot", "--output", str(target), "--delta", "2",
    )
    assert code == 0
    assert '"d" -> "c" [label="2"];' in target.read_text()


def test_cluster_multiple_emissions(tmp_path):
    nwk, csv_path = tmp_path / "t.nwk", tmp_path / "m.csv"
    code, out, err = run_cli(
        "cluster", "--input", CYCLE4, "--method", "reciprocal",
        "--emit", "newick", "--output", str(nwk),
        "--emit", "csv", "--output", str(csv_path),
    )
    assert code == 0
    assert nwk.read_text() == (DATA / "golden_cycle4_reciprocal.nwk").read_text()
    assert csv_path.read_text().startswith(",a,b,c,d")
    code, out, err = run_cli(
        "cluster", "--input", CYCLE4, "--method", "reciprocal",
        "--emit", "newick", "--emit", "csv",
    )
    assert code == 1  # two stdout artifacts would interleave


def test_uses_format_with_flag(tmp_path):
    src = tmp_path / "uses.csv"
    src.write_text(",s1,s2\ns1,90,30\ns2,10,70\n")
    code, out, err = run_cli(
        "cluster", "--input", str(src), "--format", "uses", "--method", "reciprocal"
    )
    assert code == 0
    assert "0.9 -> {s1,s2}" in out  # max(0.7, 0.9) merges both sectors
    trio = tmp_path / "uses3.csv"
    trio.write_text(",s1,s2,s3\ns1,10,30,20\ns2,40,10,30\ns3,50,60,10\n")
    with_diag = run_cli(
        "cluster", "--input", str(trio), "--format", "uses", "--method", "reciprocal"
    )
    without_diag = run_cli(
        "cluster", "--input", str(trio), "--format", "uses",
        "--uses-exclude-diagonal", "--method", "reciprocal",
    )
    assert with_diag[0] == 0 and without_diag[0] == 0
    assert with_diag[1] != without_diag[1]  # the flag changes the normalization


# ---- validate / cut / compare -----------------------------------------------

def test_validate_cycle4_network_passes():
    code, out, err = run_cli("validate", "--input", CYCLE4)
    assert code == 0
    assert "valid" in out
    assert "minimax connectivity: all directed chain costs finite" in out


def test_validate_asymmetric_matrix_as_ultrametric_fails():
    code, out, err = run_cli("validate", "--input", CYCLE4, "--ultrametric")
    assert code == 2
    assert "not symmetric" in out


def test_validate_reports_negative_entries(tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text(",p,q\np,0,-3\nq,1,0\n")
    code, out, err = run_cli("validate", "--input", str(src))
    assert code == 2
    assert "negative entry" in out


def test_cut_cycle4_reciprocal_at_two_and_a_half():
    code, out, err = run_cli(
        "cut", "--input", CYCLE4, "--method", "reciprocal", "--delta", "2.5"
    )
    assert code == 0
    assert out == "2.5: {a} {b} {c,d}\n"


def test_cut_json(tmp_path):
    code, out, err = run_cli(
        "cut", "--input", CYCLE4, "--method", "reciprocal", "--delta", "0", "--emit", "json"
    )
    assert code == 0
    assert json.loads(out)["blocks"] == [["a"], ["b"], ["c"], ["d"]]


def test_compare_sweep8_row_and_sandwich():
    code, out, err = run_cli(
        "compare", "--input", SWEEP8,
        "--method", "reciprocal", "--method", "nonreciprocal",
        "--method", "semi-reciprocal:3",
    )
    assert code == 0
    row = [ln for ln in out.splitlines() if ln.startswith("x,xp")][0]
    assert row.split()[1:] == ["4", "1", "3", "ok"]
    assert "VIOLATION" not in out


def test_compare_refuses_invalid_graft():
    code, out, err = run_cli(
        "compare", "--input", CYCLE4, "--method", "graft-rr-invalid:4"
    )
    assert code == 2


def test_cut_refuses_invalid_graft_before_running_it(monkeypatch):
    calls = []
    for name in ("reciprocal", "nonreciprocal"):
        monkeypatch.setattr(dioidclust.methods, name, lambda net, name=name: calls.append(name))
    code, out, err = run_cli("cut", "--input", CYCLE4, "--method", "graft-rr-invalid:4", "--delta", "2")
    assert (code, out) == (2, "")
    assert err == "error: graft-rr-invalid:4 is a counterexample demonstrator; it has no partitions\n"
    assert calls == []


# ---- plumbing ----------------------------------------------------------------

def test_exit_codes():
    code, _, err = run_cli("cluster", "--input", CYCLE4, "--method", "bogus")
    assert code == 1 and "grammar" in err
    code, _, err = run_cli("cluster", "--input", "/nonexistent/net.csv", "--method", "reciprocal")
    assert code == 3
    code, _, err = run_cli("cluster", "--input", CYCLE4, "--method", "single-linkage")
    assert code == 2  # asymmetric input rejected by single linkage
    code, _, err = run_cli("bogus-command")
    assert code == 1


def test_non_finite_or_negative_flags_are_usage_errors():
    for value in ("nan", "inf", "-1"):
        for argv in (
            ("cut", "--input", CYCLE4, "--method", "reciprocal", "--delta", value),
            ("cluster", "--input", CYCLE4, "--method", "reciprocal", "--emit", "dot", "--delta", value),
            ("validate", "--input", CYCLE4, "--ultrametric", "--tolerance", value),
            ("compare", "--input", CYCLE4, "--method", "reciprocal", "--tolerance", value),
        ):
            code, out, err = run_cli(*argv)
            assert code == 1, argv
            assert f"argument {argv[-2]}: must be a finite number >= 0" in err, argv
            assert out == ""


def test_flags_take_only_plain_ascii_numbers():
    # float() reads these as 10, 3 and 10.5.
    for value in ("1_0", "\u0663", "1_0.5"):
        code, out, err = run_cli("cut", "--input", CYCLE4, "--method", "reciprocal", "--delta", value)
        assert (code, out) == (1, ""), value
        assert f"argument --delta: invalid float value: {value!r}" in err


def test_compare_reports_sandwich_violations(monkeypatch):
    # semi-reciprocal:3 is replaced by a matrix below the lower bound on (a, b)
    # and above the upper bound on (c, d); every other pair is in bounds.
    def out_of_bounds(net, t):
        dist = dioidclust.methods.reciprocal(net).dist.copy()
        dist[0, 1] = dist[1, 0] = 0.5
        dist[2, 3] = dist[3, 2] = 9.0
        return Ultrametric(net.labels, dist)

    monkeypatch.setattr(dioidclust.methods, "semi_reciprocal", out_of_bounds)
    code, out, err = run_cli(
        "compare", "--input", CYCLE4, "--method", "nonreciprocal", "--method", "semi-reciprocal:3"
    )
    assert code == 2
    assert out.splitlines() == [
        "pair  nonreciprocal  semi-reciprocal:3  sandwich",
        "a,b   1              0.5                VIOLATION:semi-reciprocal:3",
        "a,c   1              5                  ok",
        "a,d   1              5                  ok",
        "b,c   1              5                  ok",
        "b,d   1              5                  ok",
        "c,d   1              9                  VIOLATION:semi-reciprocal:3",
    ]
    assert err == "error: 2 sandwich violations\nerror: sandwich bounds violated\n"


def test_compare_and_grafts_run_each_extreme_once(monkeypatch):
    argv = ["compare", "--input", CYCLE4]
    for method in ("reciprocal", "graft-rnr:4", "graft-rrmax:4", "convex:0.5*reciprocal+0.5*nonreciprocal"):
        argv += ["--method", method]
    code, expected, _ = run_cli(*argv)
    assert code == 0
    calls = {}
    for name in ("reciprocal", "nonreciprocal"):
        def counted(net, name=name, method=getattr(dioidclust.methods, name)):
            calls[name] = calls.get(name, 0) + 1
            return method(net)
        monkeypatch.setattr(dioidclust.methods, name, counted)
    assert run_cli(*argv) == (0, expected, "")
    assert calls == {"reciprocal": 1, "nonreciprocal": 1}
    calls.clear()
    dioidclust.methods.graft_rnr(cycle4_network(), 4.0)
    assert calls == {"reciprocal": 1, "nonreciprocal": 1}


def _nested_convex(levels):
    text = "convex:0.5*reciprocal+0.5*nonreciprocal"
    for _ in range(levels - 1):
        text = f"convex:0.5*({text})+0.5*nonreciprocal"
    return text


def test_deep_convex_specs_run_up_to_the_cap():
    deepest = _nested_convex(500)
    code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", deepest)
    assert code == 0, err
    assert out.startswith(f"method: {deepest}\n")
    code, out, err = run_cli("compare", "--input", CYCLE4, "--method", deepest)
    assert code == 0, err
    assert out.splitlines()[0].split()[1] == deepest
    for levels in (501, 5000):
        code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", _nested_convex(levels))
        assert code == 1 and out == ""
        assert "convex specs nest at most 500 levels deep" in err and GRAMMAR in err


def test_describe_is_linear_and_not_recursive(monkeypatch):
    spec = MethodSpec("convex", weights=(0.5, 0.5), constituents=(MethodSpec("reciprocal"), MethodSpec("nonreciprocal")))
    for _ in range(1999):
        spec = MethodSpec("convex", weights=(0.5, 0.5), constituents=(spec, MethodSpec("nonreciprocal")))
    assert spec.describe() == _nested_convex(2000)
    calls = []
    original = MethodSpec.describe

    def counting(self):
        calls.append(self.kind)
        return original(self)

    monkeypatch.setattr(MethodSpec, "describe", counting)
    code, _, err = run_cli("cluster", "--input", CYCLE4, "--method", _nested_convex(500))
    assert code == 0, err
    assert len(calls) <= 2


def test_cluster_newick_of_a_400_level_chain(tmp_path):
    # u(i, j) = max(i, j): node k joins the tree at resolution k, 399 levels deep.
    labels = [f"n{i}" for i in range(400)]
    rows = [labels[i] + "," + ",".join(str(max(i, j)) if i != j else "0" for j in range(400)) for i in range(400)]
    src = tmp_path / "chain.csv"
    src.write_text("\n".join(["," + ",".join(labels)] + rows) + "\n")
    code, out, err = run_cli("cluster", "--input", str(src), "--method", "single-linkage", "--emit", "newick")
    assert code == 0, err
    tree = out.splitlines()[-1]
    assert tree.startswith("(" * 399 + "n0:1,n1:1):1,n2:2):1,n3:3)")
    assert tree.endswith("):1,n399:399):0;")


def test_malformed_csv_is_a_parse_error(tmp_path):
    src = tmp_path / "broken.csv"
    src.write_text(",p,q\np,0,1\n")
    code, _, err = run_cli("cluster", "--input", str(src), "--method", "reciprocal")
    assert code == 1


def test_help_shows_grammar_and_flags(capsys):
    import contextlib

    def help_text(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv), stdout=out, stderr=out)
        assert code == 0
        return out.getvalue() + capsys.readouterr().out

    top = help_text("--help")
    for line in GRAMMAR.splitlines():
        assert line.rstrip() in top
    cluster_help = help_text("cluster", "--help")
    for flag in (
        "--input", "--format", "--method", "--emit", "--output",
        "--delta", "--uses-exclude-diagonal",
    ):
        assert flag in cluster_help, flag
    assert "semi-reciprocal:<t>" in cluster_help
    assert "--tolerance" in help_text("validate", "--help")
    assert "--tolerance" in help_text("compare", "--help")
    code, _, err = run_cli("cluster", "--input", CYCLE4, "--method", "reciprocal", "--tolerance", "0")
    assert code == 1 and "--tolerance" in err


def test_main_builds_the_parser_once(monkeypatch):
    import contextlib

    import dioidclust.cli

    builds, build = [], dioidclust.cli.build_parser
    monkeypatch.setattr(dioidclust.cli, "_parser", None)
    monkeypatch.setattr(dioidclust.cli, "build_parser", lambda: builds.append(None) or build())

    def call(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out):  # --help writes to sys.stdout
            code = main(list(argv), stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    for argv, expected in ((("cluster", "--input", CYCLE4, "--method", "reciprocal"), 0),
                           (("cluster", "--input", CYCLE4), 1),
                           (("--help",), 0)):
        first = call(*argv)
        assert first[0] == expected and call(*argv) == first, argv
    assert "semi-reciprocal:<t>" in first[1]
    assert len(builds) == 1


def test_hop_budgets_at_the_clamp_take_one_closure_and_no_product(monkeypatch):
    import dioidclust.dioid

    closures, products = [], []
    closure, product = dioidclust.methods.quasi_inverse, dioidclust.dioid.dioid_product
    monkeypatch.setattr(dioidclust.methods, "quasi_inverse", lambda a: closures.append(a) or closure(a))
    monkeypatch.setattr(dioidclust.dioid, "dioid_product", lambda a, b: products.append(a) or product(a, b))
    for t in (4, 5, 9):
        closures.clear()
        code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", f"semi-reciprocal:{t}")
        assert code == 0, err
        assert "1 -> {a,b,c,d}" in out
        assert (len(closures), products) == (1, []), t


def test_cluster_validates_each_result_once(monkeypatch):
    import dioidclust.cli
    import dioidclust.dioid
    import dioidclust.hierarchy

    def counting(original, calls):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return wrapper

    validations, products, sorts = [], [], []
    validate = counting(dioidclust.hierarchy.validate_ultrametric, validations)
    product = counting(dioidclust.dioid.dioid_product, products)
    monkeypatch.setattr(np, "lexsort", counting(np.lexsort, sorts))
    monkeypatch.setattr(dioidclust.hierarchy, "validate_ultrametric", validate)
    monkeypatch.setattr(dioidclust.cli, "validate_ultrametric", validate)
    monkeypatch.setattr(dioidclust.dioid, "dioid_product", product)
    monkeypatch.setattr(dioidclust.hierarchy, "dioid_product", product)
    for argv in (["cluster", "--method", "reciprocal", "--emit", "newick"],
                 ["cluster", "--method", "nonreciprocal", "--emit", "newick"],
                 ["cut", "--method", "reciprocal", "--delta", "2.5"]):
        validations.clear()
        sorts.clear()
        code, _, err = run_cli(*argv, "--input", CYCLE4)
        assert code == 0, err
        # A valid result is recognised in its leaf order, sorted once: no dioid product.
        assert (len(validations), len(sorts), products) == (1, 1, []), argv
    # Only an invalid result pays for the product that lists its violations.
    validations.clear()
    m = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(InvalidUltrametricError) as err:
        to_dendrogram(Ultrametric(("0", "1", "2"), m))
    assert (len(validations), len(products)) == (1, 1)
    assert err.value.report == validate_ultrametric(m, 0.0)
    assert err.value.report.violations == (("0", "2", "1", 3.0, 1.0), ("1", "2", "0", 3.0, 1.0))


def test_cluster_replays_the_merges_once():
    import dioidclust.hierarchy

    with mock.patch.object(dioidclust.hierarchy, "_replay", wraps=dioidclust.hierarchy._replay) as replay:
        code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", "reciprocal", "--emit", "newick")
    assert code == 0, err
    # The forest check reads the roots and Newick the tree, both off one replay.
    assert out.endswith((DATA / "golden_cycle4_reciprocal.nwk").read_text()) and replay.call_count == 1


def test_tolerance_flag_overrides_validation(tmp_path):
    # a near-ultrametric matrix: symmetric but off by 1e-12 on idempotency
    src = tmp_path / "wobbly.csv"
    src.write_text(
        ",p,q,r\n"
        "p,0,2.000000000001,2\n"
        "q,2.000000000001,0,2\n"
        "r,2,2,0\n"
    )
    strict = run_cli("validate", "--input", str(src), "--ultrametric")
    assert strict[0] == 2
    loose = run_cli("validate", "--input", str(src), "--ultrametric", "--tolerance", "1e-9")
    assert loose[0] == 0


def test_output_is_byte_identical_across_runs():
    first = run_cli("cluster", "--input", SWEEP8, "--method", "semi-reciprocal:3", "--emit", "json")
    second = run_cli("cluster", "--input", SWEEP8, "--method", "semi-reciprocal:3", "--emit", "json")
    assert first == second


def test_oracle_subcommand_generates_fixterritory(tmp_path):
    target = tmp_path / "oracle.csv"
    code, out, err = run_cli(
        "oracle", "--input", CYCLE4, "--method", "reciprocal", "--output", str(target)
    )
    assert code == 0
    assert target.read_text().splitlines()[1] == "a,0,3,5,5"
    code, out, err = run_cli("oracle", "--input", CYCLE4, "--method", "graft-rnr:4")
    assert code == 1


def test_installed_console_script_exists():
    exe = shutil.which("dioidclust")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    import subprocess

    proc = subprocess.run(
        [exe, "cluster", "--input", CYCLE4, "--method", "reciprocal"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "2 -> {c,d}" in proc.stdout
