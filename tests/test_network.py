import io
import math
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dioidclust import (
    Network,
    NetworkFormatError,
    UsesTable,
    from_uses_table,
    load_network,
    load_uses_table,
    save_network,
    quasi_inverse,
    validate_network,
)
from dioidclust.network import _parse_cell

from conftest import DATA, random_network


def test_load_cycle4_dense_csv(cycle4):
    loaded = load_network(DATA / "cycle4.csv")
    assert loaded.labels == ("a", "b", "c", "d")
    assert loaded.dissim[0, 1] == 1.0
    assert loaded.dissim[1, 0] == 3.0
    assert np.array_equal(loaded.dissim, cycle4.dissim)


def test_load_path_with_comma_in_directory(tmp_path, cycle4):
    folder = tmp_path / "d,x"
    folder.mkdir()
    shutil.copy(DATA / "cycle4.csv", folder / "net.csv")
    for source in (folder / "net.csv", str(folder / "net.csv")):
        assert np.array_equal(load_network(source).dissim, cycle4.dissim)


def test_load_edge_list_missing_edges_are_infinite():
    net = load_network(io.StringIO("a\tb\t2.5\n"), fmt="edge-list")
    assert net.labels == ("a", "b")
    assert net.dissim[0, 1] == 2.5
    assert net.dissim[1, 0] == math.inf
    assert net.dissim[0, 0] == 0.0


def test_load_cycle4_edge_list(cycle4):
    net = load_network(DATA / "cycle4.tsv", fmt="edge-list")
    assert net.labels == ("a", "b", "c", "d")
    finite = np.isfinite(net.dissim)
    assert np.array_equal(net.dissim[finite], cycle4.dissim[finite])


def test_edge_list_rejects_duplicates_and_garbage():
    with pytest.raises(NetworkFormatError, match="duplicate edge"):
        load_network(io.StringIO("a\tb\t1\na\tb\t2\n"), fmt="edge-list")
    with pytest.raises(NetworkFormatError, match="src<TAB>dst<TAB>weight"):
        load_network(io.StringIO("a b 1\n"), fmt="edge-list")
    with pytest.raises(NetworkFormatError, match="nonzero diagonal"):
        load_network(io.StringIO("a\ta\t4\nb\ta\t1\n"), fmt="edge-list")


def test_dense_csv_negative_entry_names_cell():
    for cell in ("-1", "-inf"):
        text = f",a,b\na,0,{cell}\nb,2,0\n"
        with pytest.raises(NetworkFormatError, match=rf"^negative entry at \(a, b\): {cell}$"):
            load_network(io.StringIO(text))


def _dense(cell):
    return f",a,b\na,0,{cell}\nb,2,0\n"


@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_network, _dense("x"), r"unparsable value 'x' at \(a, b\)"),
        (load_network, _dense("nan"), r"NaN value at \(a, b\)"),
        # float() reads these as 10, 3 and +inf.
        (load_network, _dense("1_0"), r"unparsable value '1_0' at \(a, b\)"),
        (load_network, _dense("\u0663"), r"unparsable value '\u0663' at \(a, b\)"),
        (load_network, _dense("1e400"), r"value '1e400' at \(a, b\) overflows to inf"),
        (load_network, ",a,b\n", r"dense CSV needs a header and at least one row, got 1 lines"),
        (load_network, ",a,b\nb,0,1\na,1,0\n", r"row 1 label 'b' does not match column label 'a'"),
        # Line 3 is named although a comment and a blank line come before it.
        (lambda t: load_network(t, fmt="edge-list"), "# edges\n\na\tb\tx\n", r"unparsable value 'x' at line 3"),
        (lambda t: load_network(t, fmt="edge-list"), "# no edges\n\n", r"edge list is empty"),
        (lambda t: load_network(t, fmt="matrix-market"), _dense("1"), r"unknown network format 'matrix-market'"),
        (load_uses_table, ",s1,s2\ns1,1,inf\ns2,1,1\n", r"flows must be finite, got inf at \(s1, s2\)"),
        (load_network, ", ,b\n ,0,1\nb,1,0\n", r"empty label at position 1 of 2"),
        (lambda t: load_network(t, fmt="edge-list"), "a\tb\t1\nb\t \t2\n", r"line 2: empty node name"),
        # A leading tab delimits a field; trailing whitespace is still ignored.
        (lambda t: load_network(t, fmt="edge-list"), "\tb\t1 \n", r"line 1: empty node name"),
        (lambda t: load_network(t, fmt="edge-list"), "\ta\tb\t1\n", r"line 1: expected 'src<TAB>dst<TAB>weight'"),
    ],
    ids=["unparsable", "nan", "underscore", "arabic-digit", "overflow", "one-line-csv", "row-label",
         "edge-list-line", "empty-edge-list", "unknown-format", "uses-inf", "empty-label", "empty-node",
         "empty-source", "four-fields"],
)
def test_input_errors_name_their_cell_line_or_sector(load, text, message):
    with pytest.raises(NetworkFormatError, match=message):
        load(io.StringIO(text))


def test_cells_read_as_float_reads_them():
    for cell in ("1e5", " 2.5 ", "-0", "+3", ".5", "7.", "1E-3", "Infinity", "INF", "1e308"):
        assert load_network(io.StringIO(_dense(cell))).dissim[0, 1] == float(cell), cell


def test_dense_csv_nonzero_diagonal_rejected():
    text = ",a,b\na,1,2\nb,2,0\n"
    with pytest.raises(NetworkFormatError, match="nonzero diagonal"):
        load_network(io.StringIO(text))


def test_dense_csv_shape_mismatch():
    with pytest.raises(NetworkFormatError, match="data rows"):
        load_network(io.StringIO(",a,b\na,0,1\n"))
    with pytest.raises(NetworkFormatError, match="cells"):
        load_network(io.StringIO(",a,b\na,0,1\nb,2,0,9\n"))


def test_dense_csv_duplicate_labels():
    with pytest.raises(NetworkFormatError, match="duplicate label"):
        load_network(io.StringIO(",a,a\na,0,1\na,2,0\n"))


def test_dense_csv_inf_spellings():
    text = ",a,b\na,0,INF\nb,,0\n"
    net = load_network(io.StringIO(text))
    assert net.dissim[0, 1] == math.inf
    assert net.dissim[1, 0] == math.inf


def test_load_accepts_bytes_and_byte_streams():
    payload = b",a,b\na,0,2\nb,3,0\n"
    assert load_network(payload).dissim[1, 0] == 3.0
    assert load_network(io.BytesIO(payload)).dissim[0, 1] == 2.0


def test_lenient_load_defers_value_checks():
    text = ",a,b\na,0,-1\nb,2,0\n"
    net = load_network(io.StringIO(text), strict=False)
    report = validate_network(net)
    assert not report.is_valid
    assert report.negative_entries == (("a", "b", -1.0),)


def test_save_load_round_trip_is_bit_exact():
    original = (DATA / "cycle4.csv").read_text()
    assert save_network(load_network(DATA / "cycle4.csv")) == original
    fractional = ",p,q\np,0,0.7\nq,inf,0\n"
    assert save_network(load_network(io.StringIO(fractional))) == fractional
    # Lenient loading keeps a -inf for validate_network; saving must keep its sign.
    negative = ",p,q\np,0,-inf\nq,inf,0\n"
    assert save_network(load_network(io.StringIO(negative), strict=False)) == negative


def test_save_load_round_trip_random(rng):
    for _ in range(5):
        net = random_network(rng)
        assert np.array_equal(load_network(io.StringIO(save_network(net))).dissim, net.dissim)


def test_uses_table_two_sector_example():
    table = UsesTable(("s1", "s2"), np.array([[90.0, 30.0], [10.0, 70.0]]))
    net = from_uses_table(table)
    assert net.dissim[0, 1] == pytest.approx(1 - 30 / 100)
    assert net.dissim[1, 0] == pytest.approx(1 - 10 / 100)
    assert net.dissim[0, 0] == 0.0


def test_uses_table_dominant_supplier_share():
    # A supplier providing 82.6% of a sector's input sits at dissimilarity 0.174.
    table = UsesTable(("og", "pc"), np.array([[50.0, 826.0], [100.0, 174.0]]))
    net = from_uses_table(table)
    assert net.dissim[0, 1] == pytest.approx(0.174, abs=1e-12)


def test_uses_table_zero_column_names_sector():
    table = UsesTable(("s1", "s2"), np.array([[3.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(NetworkFormatError, match="'s2'"):
        from_uses_table(table)


def test_uses_table_exclude_diagonal_flag():
    table = UsesTable(("s1", "s2"), np.array([[90.0, 30.0], [10.0, 70.0]]))
    net = from_uses_table(table, exclude_diagonal=True)
    assert net.dissim[0, 1] == pytest.approx(1 - 30 / 30)
    assert net.dissim[1, 0] == pytest.approx(1 - 10 / 10)


def test_uses_table_outputs_lie_in_unit_interval(rng):
    for _ in range(10):
        n = int(rng.integers(2, 8))
        flow = rng.uniform(0, 100, (n, n))
        net = from_uses_table(UsesTable(tuple(f"s{i}" for i in range(n)), flow))
        off = ~np.eye(n, dtype=bool)
        assert (net.dissim[off] >= 0).all() and (net.dissim[off] <= 1).all()
        assert (np.diagonal(net.dissim) == 0).all()


def test_uses_table_column_shares(rng):
    # Off-diagonal shares of each column sum to one minus the self share.
    for _ in range(5):
        n = int(rng.integers(2, 7))
        flow = rng.uniform(1, 50, (n, n))
        table = UsesTable(tuple(f"s{i}" for i in range(n)), flow)
        net = from_uses_table(table)
        totals = flow.sum(axis=0)
        for j in range(n):
            got = sum(1 - net.dissim[i, j] for i in range(n) if i != j)
            want = 1 - flow[j, j] / totals[j]
            assert got == pytest.approx(want, abs=1e-12)


def test_load_uses_table_csv():
    table = load_uses_table(io.StringIO(",s1,s2\ns1,90,30\ns2,10,70\n"))
    assert table.labels == ("s1", "s2")
    assert table.flow[0, 1] == 30.0
    with pytest.raises(NetworkFormatError, match="negative flow"):
        UsesTable(("a", "b"), np.array([[1.0, -2.0], [0.0, 1.0]]))


def test_validate_cycle4_is_clean(cycle4):
    report = validate_network(cycle4)
    assert report.is_valid
    assert report.minimax_connected is True
    assert "valid" in report.lines()[0]


def test_validate_flags_zero_off_diagonal():
    net = Network(("p", "q"), np.array([[0.0, 0.0], [1.0, 0.0]]))
    report = validate_network(net)
    assert not report.is_valid
    assert report.zero_off_diagonal == (("p", "q"),)


def test_validate_detects_disconnected_components():
    a = np.array([
        [0.0, 1.0, np.inf, np.inf],
        [1.0, 0.0, np.inf, np.inf],
        [np.inf, np.inf, 0.0, 2.0],
        [np.inf, np.inf, 2.0, 0.0],
    ])
    report = validate_network(Network(("p", "q", "r", "s"), a))
    assert report.is_valid
    assert report.minimax_connected is False


def test_network_structure_errors():
    with pytest.raises(NetworkFormatError, match="square"):
        Network(("a",), np.zeros((1, 2)))
    with pytest.raises(NetworkFormatError, match="labels"):
        Network(("a", "b", "c"), np.zeros((2, 2)))
    with pytest.raises(NetworkFormatError, match="duplicate"):
        Network(("a", "a"), np.zeros((2, 2)))
    with pytest.raises(NetworkFormatError, match="NaN"):
        Network(("a", "b"), np.array([[0.0, np.nan], [1.0, 0.0]]))


def test_network_matrix_is_immutable(cycle4):
    with pytest.raises(ValueError):
        cycle4.dissim[0, 1] = 9.0


# Spellings every cell parser must agree on: accepted, blank, or a named error.
CELL_SPELLINGS = (
    "2", ".5", "-0", "1e-3", "+1", " 7 ", " -0 ", "1E5", "0.30000000000000004", "1e400", "1_0", "\u0663",
    "inf", "INF", "Infinity", "nan", "e", "--1", "1 2", "", "  ",
)


def _cells_per_cell(text):
    """The dense-CSV cells read one _parse_cell call each, as before rows took one numpy call."""
    rows = text.splitlines()
    labels = rows[0].split(",")[1:]
    matrix = np.empty((len(labels), len(labels)))
    for i, row in enumerate(rows[1:]):
        cells = row.split(",")
        for j, cell in enumerate(cells[1:]):
            matrix[i, j] = _parse_cell(cell, f"({cells[0]}, {labels[j]})")
    return matrix


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from(CELL_SPELLINGS), min_size=n, max_size=n), min_size=n, max_size=n)))
@example([["-0", "0"], ["2", "-0"]])
@example([["1", "2", "1e400"], ["1", "1", "1"], ["1", "1", "x"]])
def test_dense_rows_parse_as_cell_by_cell(cells):
    n = len(cells)
    text = "," + ",".join(f"n{j}" for j in range(n)) + "\n"
    text += "".join(f"n{i}," + ",".join(row) + "\n" for i, row in enumerate(cells))
    try:
        want = _cells_per_cell(text)
    except NetworkFormatError as exc:
        with pytest.raises(NetworkFormatError) as got:
            load_network(text, strict=False)
        assert str(got.value) == str(exc)
    else:
        got = load_network(text, strict=False).dissim
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # -0.0 stays -0.0


def _closure_connected(net):
    """Minimax connectivity as the O(n^3) closure decides it: every closure entry finite."""
    cleaned = np.array(net.dissim)
    np.fill_diagonal(cleaned, 0.0)
    return bool(np.isfinite(quasi_inverse(cleaned)).all())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from([1.0, 2.0, 0.0, np.inf, np.inf, np.inf]), min_size=n * n, max_size=n * n))))
def test_connectivity_matches_the_closure(case):
    n, entries = case
    a = np.array(entries).reshape(n, n)
    net = Network(tuple(f"n{i}" for i in range(n)), a)  # nonzero diagonals are reported, not refused
    assert validate_network(net).minimax_connected is _closure_connected(net)


def test_connectivity_edge_cases():
    assert validate_network(Network((), np.zeros((0, 0)))).minimax_connected is True
    assert validate_network(Network(("p",), np.zeros((1, 1)))).minimax_connected is True
    one_way = Network(("p", "q"), np.array([[0.0, 1.0], [np.inf, 0.0]]))
    assert validate_network(one_way).minimax_connected is False
    negative = Network(("p", "q"), np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert validate_network(negative).minimax_connected is None
