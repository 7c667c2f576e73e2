import io
import json
import math
import os
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
from dioidclust.network import Network

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


# Each malformed spec with the problem its error names; int() and float() would read
# "1_0", "\u0663" and "1_0.5" as 10, 3 and 10.5.
PARSE_ERRORS = [
    ("fancy-clustering", "unknown method kind 'fancy-clustering'"),
    ("semi-reciprocal:two", "t must be an integer in ASCII digits"),
    ("semi-reciprocal:1", "t >= 2"),
    ("convex:0.5*reciprocal+0.6*nonreciprocal", "sum to 1"),
    ("convex:0.5*(reciprocal+0.5*nonreciprocal", "unbalanced"),
    ("reciprocal)", "unbalanced"),
    ("((reciprocal)", "unbalanced"),
    ("convex:0.5*reciprocal+0.5*convex:0.5*reciprocal+0.5*nonreciprocal", "nested convex spec needs parentheses"),
    ("semi-reciprocal:1_0", "t must be an integer"),
    ("intermediate:\u0663,2", "t_fwd must be an integer"),
    ("graft-rnr:1_0.5", "beta must be a decimal number"),
    ("graft-rnr:inf", "beta must be a decimal number"),
    ("convex:0_.5*reciprocal+0.5*nonreciprocal", "a weight must be a decimal number"),
    ("semi-reciprocal", "semi-reciprocal needs ':' and then t"),
    ("convex:0.5 reciprocal+0.5*nonreciprocal", "expected '\\*' between a weight and its spec"),
    ("intermediate:2 5", "intermediate needs t_fwd and t_bwd, separated by ','"),
    # More digits than int() converts: the column is where the number starts.
    ("semi-reciprocal:" + "9" * 5000, r"t has too many digits: .*\(column 17 of"),
    ("convex:0.5*reciprocal+0.5*intermediate:2," + "9" * 4400, r"t_bwd has too many digits: .*\(column 42 of"),
]


def test_parse_errors_carry_the_grammar():
    for text, problem in PARSE_ERRORS:
        with pytest.raises(MethodSpecError, match=f"(?s){problem}.*grammar"):
            parse_method_spec(text)
    for text in ("semi-reciprocal:1_0", "semi-reciprocal:" + "9" * 5000):
        code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", text)
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

def test_cluster_prints_merge_summary(tmp_path):
    code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", "reciprocal")
    assert code == 0
    assert "method: reciprocal" in out
    assert "  2 -> {c,d}" in out
    assert "  3 -> {a,b}" in out
    assert "  5 -> {a,b,c,d}" in out
    single = tmp_path / "single.csv"
    single.write_text(",a\na,0\n")
    code, out, err = run_cli("cluster", "--input", str(single), "--method", "reciprocal")
    assert (code, out, err) == (0, "method: reciprocal\nnodes: 1\nmerges: (none)\n", "")


def test_cluster_graft_json_merges_at_one_and_five(tmp_path):
    target = tmp_path / "out.json"
    code, out, err = run_cli(
        "cluster", "--input", CYCLE4, "--method", "graft-rnr:4",
        "--emit", "json", "--output", str(target),
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert [m["resolution"] for m in doc["merges"]] == [1.0, 5.0]


CYCLE4_SUMMARY = "method: reciprocal\nnodes: 4\nmerges:\n  2 -> {c,d}\n  3 -> {a,b}\n  5 -> {a,b,c,d}\n"


def test_cluster_emits_to_stdout_without_output_path():
    code, out, err = run_cli(
        "cluster", "--input", CYCLE4, "--method", "reciprocal", "--emit", "newick"
    )
    assert code == 0
    assert out == (DATA / "golden_cycle4_reciprocal.nwk").read_text()
    assert err == CYCLE4_SUMMARY  # the summary never shares stdout with an artifact


def test_cluster_json_on_stdout_is_the_golden_alone():
    code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", "reciprocal", "--emit", "json")
    assert (code, out, err) == (0, (DATA / "golden_cycle4_reciprocal.json").read_text(), CYCLE4_SUMMARY)
    json.loads(out)


def test_cluster_refuses_a_repeated_output_path(tmp_path):
    target = str(tmp_path / "x")
    code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", "reciprocal", "--emit", "newick",
                             "--emit", "json", "--output", target, "--output", target)
    assert (code, out, err) == (1, "", f"error: --output {target} is given twice\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("spelling", ["dot-slash", "symlink"])
def test_cluster_refuses_two_spellings_of_one_output_path(tmp_path, monkeypatch, spelling):
    monkeypatch.chdir(tmp_path)
    later = "./x"
    if spelling == "symlink":
        later = "link"
        try:
            os.symlink("x", later)
        except OSError as exc:
            pytest.skip(f"no symlinks here: {exc}")
    code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", "reciprocal", "--emit", "newick",
                             "--emit", "json", "--output", "x", "--output", later)
    assert (code, out, err) == (1, "", f"error: --output {later} is given twice\n")
    assert sorted(os.listdir(tmp_path)) == ([later] if spelling == "symlink" else [])
    assert not os.path.exists("x")


def test_cluster_summary_stays_on_stdout_when_every_artifact_has_a_path(tmp_path):
    target = tmp_path / "t.nwk"
    code, out, err = run_cli(
        "cluster", "--input", CYCLE4, "--method", "reciprocal", "--emit", "newick", "--output", str(target)
    )
    assert (code, out, err) == (0, CYCLE4_SUMMARY, "")
    assert target.read_text() == (DATA / "golden_cycle4_reciprocal.nwk").read_text()


def test_cluster_invalid_graft_report_leaves_stdout_to_the_csv():
    code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", "graft-rr-invalid:4", "--emit", "csv")
    assert code == 0
    assert out.startswith(",a,b,c,d\n") and "INVALID" not in out
    assert err.startswith("ultrametric: 4 nodes, INVALID") and "triangle violation" in err


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
    assert "  negative entry at (p, q): -3\n" in out


@pytest.mark.parametrize("fmt, text", [("dense-csv", ",a,b,c\na,0,0,1\nb,0,0,1\nc,1,1,0\n"),
                                       ("edge-list", "a\tb\t0\nb\ta\t0\n")], ids=["dense", "edge-list"])
def test_a_zero_off_the_diagonal_is_refused_at_load_naming_the_cell(tmp_path, fmt, text):
    src = tmp_path / "net.txt"
    src.write_text(text)
    for argv in (("cluster", "--method", "reciprocal"), ("compare", "--method", "semi-reciprocal:3")):
        code, out, err = run_cli(*argv, "--input", str(src), "--format", fmt)
        assert (code, out, err) == (1, "", "error: zero off-diagonal at (a, b)\n"), argv
    code, out, _ = run_cli("validate", "--input", str(src), "--format", fmt)
    assert code == 2 and "\n  zero off-diagonal at (a, b)\n" in out


def test_a_uses_table_normalized_to_zero_is_refused_naming_the_cell(tmp_path):
    src = tmp_path / "uses.csv"
    src.write_text(",s1,s2,s3\ns1,0,5,1\ns2,3,0,1\ns3,1,0,1\n")  # s1 supplies all of s2's flow
    for argv in (("cluster", "--method", "reciprocal"), ("compare", "--method", "semi-reciprocal:3")):
        code, out, err = run_cli(*argv, "--input", str(src), "--format", "uses")
        assert (code, out) == (2, ""), argv
        assert err == "error: network violates dissimilarity invariants: zero off-diagonal at (s1, s2)\n"


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
    monkeypatch.setattr(dioidclust.methods, "_hop_closures", lambda a, pairs: calls.append(set(pairs)))
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cluster", "--method", "reciprocal", "--output", "out.csv"), "--output given without --emit"),
        (("cluster", "--method", "reciprocal", "--delta", "2"), "--delta is read only by --emit dot"),
        (("cluster", "--method", "reciprocal", "--emit", "csv", "--delta", "2"), "--delta is read only by --emit dot"),
        (("validate", "--tolerance", "0.5"), "--tolerance is read only by --ultrametric"),
        *(((command, *extra, "--uses-exclude-diagonal"), "--uses-exclude-diagonal needs --format uses")
          for command, *extra in (("cluster", "--method", "reciprocal"), ("validate",),
                                  ("cut", "--method", "reciprocal", "--delta", "1"),
                                  ("compare", "--method", "reciprocal"), ("oracle", "--method", "reciprocal"))),
        # An unknown flag is named before a missing command or --method.
        (("--bogus",), "unrecognized arguments: --bogus"),
        (("cluster", "--bogus"), "unrecognized arguments: --bogus"),
    ],
    ids=["output-without-emit", "delta-without-emit", "delta-without-dot", "tolerance-without-ultrametric",
         *(f"uses-flag-{command}" for command in ("cluster", "validate", "cut", "compare", "oracle")),
         "unknown-flag-without-command", "unknown-flag-without-method"],
)
def test_flags_that_would_do_nothing_are_refused(argv, message):
    command, *rest = argv
    inputs = () if command.startswith("-") else ("--input", CYCLE4)  # a flag before any command
    code, out, err = run_cli(command, *inputs, *rest)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_out_of_memory_exits_4_with_one_line(monkeypatch):
    import dioidclust.cli

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 671. GiB for an array with shape (300001, 300001) and data type float64")

    monkeypatch.setattr(dioidclust.cli, "load_network", exhausted)
    code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", "reciprocal")
    assert (code, out) == (4, "")
    assert err == "error: out of memory: Unable to allocate 671. GiB for an array with shape (300001, 300001) " \
                  "and data type float64\n"


def test_a_file_that_is_not_utf8_exits_1_naming_the_line_and_byte(tmp_path):
    src = tmp_path / "latin1.csv"
    src.write_bytes(",a,b\r\na,0,1\r\nb,".encode() + "\u00e9".encode("latin-1") + b",0\r\n")
    code, out, err = run_cli("cluster", "--input", str(src), "--method", "reciprocal")
    assert (code, out, err) == (1, "", "error: line 3: byte 0xe9 is not valid UTF-8\n")


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
    # semi-reciprocal:3, the (2, 2) closure, is replaced by a matrix below the lower bound
    # on (a, b) and above the upper bound on (c, d); every other pair is in bounds.
    hop_closures = dioidclust.methods._hop_closures

    def out_of_bounds(a, pairs):
        closures = hop_closures(a, pairs)
        dist = closures[1, 1].copy()
        dist[0, 1] = dist[1, 0] = 0.5
        dist[2, 3] = dist[3, 2] = 9.0
        closures[2, 2] = dist
        return closures

    monkeypatch.setattr(dioidclust.methods, "_hop_closures", out_of_bounds)
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
    calls, hop_closures = [], dioidclust.methods._hop_closures
    monkeypatch.setattr(dioidclust.methods, "_hop_closures", lambda a, pairs: calls.append(set(pairs))
                        or hop_closures(a, pairs))
    assert run_cli(*argv) == (0, expected, "")
    assert calls == [{(1, 1), (math.inf, math.inf)}]
    calls.clear()
    dioidclust.methods.graft_rnr(cycle4_network(), 4.0)
    assert calls == [{(1, 1), (math.inf, math.inf)}]


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


def test_method_specs_compare_hash_and_repr_at_any_depth():
    def chain(levels, innermost=0.5):
        spec = MethodSpec("convex", weights=(innermost, 1 - innermost),
                          constituents=(MethodSpec("reciprocal"), MethodSpec("nonreciprocal")))
        for _ in range(levels - 1):
            spec = MethodSpec("convex", weights=(0.5, 0.5), constituents=(spec, MethodSpec("nonreciprocal")))
        return spec

    a, b, c = chain(600), chain(600), chain(600, innermost=0.25)
    assert a == b and hash(a) == hash(b) and a is not b
    assert repr(a) == repr(b) == f"MethodSpec({a.describe()!r})"
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert MethodSpec("semi-reciprocal", t=3) == MethodSpec("semi-reciprocal", t=np.int64(3))
    assert hash(MethodSpec("semi-reciprocal", t=3)) == hash(MethodSpec("semi-reciprocal", t=np.int64(3)))
    parts = (MethodSpec("reciprocal"), MethodSpec("nonreciprocal"))
    signed, plain = MethodSpec("convex", weights=(-0.0, 1.0), constituents=parts), \
        MethodSpec("convex", weights=(0.0, 1), constituents=parts)
    assert signed == plain and hash(signed) == hash(plain)
    for spec in method_battery():
        assert parse_method_spec(spec.describe()) == spec, spec.describe()


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
    def help_text(*argv):
        out = io.StringIO()
        code = main(list(argv), stdout=out, stderr=out)
        assert code == 0 and capsys.readouterr().out == ""  # only the stdout given to main
        return out.getvalue()

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
    import dioidclust.cli

    builds, build = [], dioidclust.cli.build_parser
    monkeypatch.setattr(dioidclust.cli, "_parser", None)
    monkeypatch.setattr(dioidclust.cli, "build_parser", lambda: builds.append(None) or build())

    def call(*argv):
        out, err = io.StringIO(), io.StringIO()
        code = main(list(argv), stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    for argv, expected in ((("cluster", "--input", CYCLE4, "--method", "reciprocal"), 0),
                           (("cluster", "--input", CYCLE4), 1),
                           (("--help",), 0)):
        first = call(*argv)
        assert first[0] == expected and call(*argv) == first, argv
    assert "semi-reciprocal:<t>" in first[1]
    assert len(builds) == 1


def test_hop_budgets_at_the_clamp_take_one_closure_and_no_product(sweeps):
    for t in (4, 5, 9, 10**20):
        sweeps.clear()
        code, out, err = run_cli("cluster", "--input", CYCLE4, "--method", f"semi-reciprocal:{t}")
        assert code == 0, err
        assert "1 -> {a,b,c,d}" in out
        assert sweeps == [True], t  # one Floyd-Warshall closure, no product
        # compare's nonreciprocal bound is the same closure of the same network
        sweeps.clear()
        code, out, err = run_cli("compare", "--input", CYCLE4, "--method", f"semi-reciprocal:{t}")
        assert code == 0, err
        assert sweeps == [True], t


def test_cluster_validates_each_result_once(monkeypatch, sweeps):
    import dioidclust.cli
    import dioidclust.hierarchy

    def counting(original, calls):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return wrapper

    validations, sorts = [], []
    validate = counting(dioidclust.hierarchy.validate_ultrametric, validations)
    monkeypatch.setattr(np, "lexsort", counting(np.lexsort, sorts))
    monkeypatch.setattr(dioidclust.hierarchy, "validate_ultrametric", validate)
    monkeypatch.setattr(dioidclust.cli, "validate_ultrametric", validate)
    for argv in (["cluster", "--method", "reciprocal", "--emit", "newick"],
                 ["cluster", "--method", "nonreciprocal", "--emit", "newick"],
                 ["cut", "--method", "reciprocal", "--delta", "2.5"]):
        validations.clear()
        sorts.clear()
        code, _, err = run_cli(*argv, "--input", CYCLE4)
        assert code == 0, err
        # A valid result is recognised in its leaf order, sorted once: no dioid product.
        assert (len(validations), len(sorts), sweeps.count(False)) == (1, 1, 0), argv
    # Only an invalid result pays for the product that lists its violations.
    validations.clear()
    m = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(InvalidUltrametricError) as err:
        to_dendrogram(Ultrametric(("0", "1", "2"), m))
    assert (len(validations), sweeps.count(False)) == (1, 1)
    assert err.value.report == validate_ultrametric(m, 0.0)
    assert err.value.report.violations == (("0", "2", "1", 3.0, 1.0), ("1", "2", "0", 3.0, 1.0))


def test_cluster_exports_never_replay(tmp_path):
    import dioidclust.hierarchy

    argv = ["cluster", "--input", SWEEP8, "--method", "semi-reciprocal:3"]
    for fmt in ("newick", "json", "csv"):
        argv += ["--emit", fmt, "--output", str(tmp_path / fmt)]
    with mock.patch.object(dioidclust.hierarchy, "_replay", wraps=dioidclust.hierarchy._replay) as replay:
        code, out, err = run_cli(*argv)
    assert code == 0, err
    # The forest check reads the roots, and Newick the tree, off the order to_dendrogram read.
    assert replay.call_count == 0
    assert (tmp_path / "newick").read_text() == (DATA / "golden_sweep8_sr3.nwk").read_text()
    assert (tmp_path / "json").read_text() == (DATA / "golden_sweep8_sr3.json").read_text()


def test_cut_and_compare_write_their_goldens():
    # The same bytes CI compares from the module entry; the cut's blocks are out of input order.
    code, out, err = run_cli("cut", "--input", SWEEP8, "--method", "semi-reciprocal:3", "--delta", "3",
                             "--emit", "json")
    assert (code, out.encode(), err) == (0, (DATA / "golden_sweep8_sr3_cut3.json").read_bytes(), "")
    code, out, err = run_cli("compare", "--input", SWEEP8, "--method", "semi-reciprocal:3", "--method",
                             "graft-rnr:4", "--method", "convex:0.5*reciprocal+0.5*nonreciprocal")
    assert (code, out.encode(), err) == (0, (DATA / "golden_sweep8_compare.txt").read_bytes(), "")


def test_edge_list_cluster_writes_its_golden():
    # The same bytes CI compares from the module entry; the summary goes to stderr.
    code, out, _ = run_cli("cluster", "--input", str(DATA / "cycle4.tsv"), "--format", "edge-list",
                           "--method", "nonreciprocal", "--emit", "json")
    assert (code, out.encode()) == (0, (DATA / "golden_cycle4_tsv_nonreciprocal.json").read_bytes())


def test_compare_of_budgets_past_the_clamp_writes_its_golden():
    # sweep8 has 8 nodes: every budget of the first two specs is past n-1, and each is passed as stated.
    code, out, err = run_cli("compare", "--input", SWEEP8, "--method", "semi-reciprocal:9",
                             "--method", "intermediate:2,99999999999999999999", "--method", "nonreciprocal")
    assert (code, out.encode(), err) == (0, (DATA / "golden_sweep8_past_clamp_compare.txt").read_bytes(), "")


def test_two_node_signed_zero_cluster_writes_its_golden():
    # The same bytes CI compares from the module entry: at n = 2, A is its own closure, -0.0 diagonal included.
    code, out, _ = run_cli("cluster", "--input", str(DATA / "pair2_negzero.csv"), "--method", "semi-reciprocal:5",
                           "--emit", "json")
    assert (code, out.encode()) == (0, (DATA / "golden_pair2_sr5.json").read_bytes())


@pytest.mark.parametrize("argv", [
    ("cluster", "--method", "reciprocal", "--emit", "json"),
    ("cut", "--method", "semi-reciprocal:3", "--delta", "3"),
    ("compare", "--method", "semi-reciprocal:3", "--method", "graft-rnr:4"),
], ids=["cluster", "cut", "compare"])
def test_a_job_evaluates_its_networks_finding_once(monkeypatch, argv):
    finding = Network.__dict__["_finding"]
    evaluated = []
    monkeypatch.setattr(finding, "func", lambda net, func=finding.func: evaluated.append(net) or func(net))
    assert run_cli(*argv, "--input", SWEEP8)[0] == 0
    assert len(evaluated) == 1


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
    # Infinite entries match only themselves, at any tolerance.
    src.write_text(",a,b\na,0,inf\nb,-inf,0\n")
    for tolerance in ("0", "0.5"):
        code, out, _ = run_cli("validate", "--input", str(src), "--ultrametric", "--tolerance", tolerance)
        assert code == 2 and "  not symmetric\n" in out, tolerance


def test_json_keeps_a_negative_zero_diagonal(tmp_path):
    # np.array_equal cannot see the sign of a zero; the JSON bytes can.
    src, target = tmp_path / "negzero.csv", tmp_path / "out.json"
    src.write_text((DATA / "cycle4.csv").read_text().replace("\na,0,", "\na,-0,"))
    code, _, err = run_cli("cluster", "--input", str(src), "--method", "semi-reciprocal:3",
                           "--emit", "json", "--output", str(target))
    assert code == 0, err
    assert target.read_text() == (DATA / "golden_cycle4_negzero_sr3.json").read_text()


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
    symmetric = tmp_path / "symmetric.csv"
    symmetric.write_text(",a,b,c\na,0,1,3\nb,1,0,2\nc,3,2,0\n")
    for path, method in ((CYCLE4, "nonreciprocal"), (CYCLE4, "semi-reciprocal:3"), (str(symmetric), "single-linkage")):
        code, out, err = run_cli("oracle", "--input", path, "--method", method)
        assert code == 0, err
        assert run_cli("cluster", "--input", path, "--method", method, "--emit", "csv", "--output", str(target))[0] == 0
        assert out == target.read_text(), method


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


def test_module_entry_runs_the_command_line():
    """``python -m dioidclust`` runs main and exits with its code, wherever the script is not installed."""
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": str(DATA.parent.parent / "src")}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "dioidclust", *argv], capture_output=True, text=True, env=env)

    proc = run("cluster", "--input", CYCLE4, "--method", "reciprocal")
    assert proc.returncode == 0, proc.stderr
    assert "2 -> {c,d}" in proc.stdout
    proc = run("cluster", "--input", CYCLE4, "--method", "reciprocal", "--bogus")
    assert proc.returncode == 1
    assert "--bogus" in proc.stderr
