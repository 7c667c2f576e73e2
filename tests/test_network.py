import csv
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
    reciprocal,
    semi_reciprocal,
    validate_network,
)
from dioidclust import network
from dioidclust.network import _check_labels, _parse_cell

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
        # Only a "#" opening the first field marks a comment: this line has an empty source.
        (lambda t: load_network(t, fmt="edge-list"), "a\tb\t1\n\t#c\t1\nb\ta\t2\n",
         r"^edge list line 2: empty node name in '\\t#c\\t1'$"),
        # A tab-led "#" is not a comment either: the line is a malformed one, never silently dropped.
        (lambda t: load_network(t, fmt="edge-list"), "a\tb\t1\n\t# note\n",
         r"^edge list line 2: expected 'src<TAB>dst<TAB>weight', got '\\t# note'$"),
        # Line 3 would read as a comment, dropping the edge #c -> a.
        (lambda t: load_network(t, fmt="edge-list"), "a\tb\t1\nb\t#c\t2\n#c\ta\t3\n",
         r"^edge list line 2: node name '#c' starts with '#', which marks a comment line$"),
        # Lines end only at LF, CRLF or CR: \v and U+2028 are characters of a line.
        (lambda t: load_network(t, fmt="edge-list"), "a\tb\t1\vb\ta\t2\r\n", r"^edge list line 1: expected 'src"),
        (lambda t: load_network(t, fmt="edge-list"), "a\tb\t1\nb\ta\t2\u2028c\ta\t3\r",
         r"^edge list line 2: expected 'src"),
    ],
    ids=["unparsable", "nan", "underscore", "arabic-digit", "overflow", "one-line-csv", "row-label",
         "edge-list-line", "empty-edge-list", "unknown-format", "uses-inf", "empty-label", "empty-node",
         "empty-source", "four-fields", "hash-led-destination-of-empty-source", "tab-led-hash-line",
         "hash-led-node", "vertical-tab-in-a-line", "line-separator-in-a-line"],
)
def test_input_errors_name_their_cell_line_or_sector(load, text, message):
    with pytest.raises(NetworkFormatError, match=message):
        load(io.StringIO(text))


def test_cells_read_as_float_reads_them():
    for cell in ("1e5", " 2.5 ", "+3", ".5", "7.", "1E-3", "Infinity", "INF", "1e308"):
        assert load_network(io.StringIO(_dense(cell))).dissim[0, 1] == float(cell), cell
    # The strict loader refuses a zero off the diagonal; the parser still reads -0.
    value = load_network(io.StringIO(_dense("-0")), strict=False).dissim[0, 1]
    assert value == 0.0 and math.copysign(1.0, value) == -1.0


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


@pytest.mark.parametrize("fmt, text", [("edge-list", "a\tb\t1\nb\ta\t2\n"), ("dense-csv", "a,b,c\nb,0,2\nc,3,0\n")])
def test_a_leading_byte_order_mark_is_dropped_from_every_source(tmp_path, fmt, text):
    want = load_network(text.encode(), fmt=fmt)
    marked = "\ufeff" + text
    path = tmp_path / "marked.txt"
    path.write_text(marked, encoding="utf-8")
    for source in (marked, marked.encode(), io.StringIO(marked), io.BytesIO(marked.encode()), path, str(path)):
        got = load_network(source, fmt=fmt)
        assert got.labels == want.labels, source
        assert np.array_equal(got.dissim, want.dissim), source


# One file's bytes per case, with its labels: line ends CR, CRLF and LF, quoted labels holding CRLF or CR, a BOM.
SAME_FILE_CASES = {
    "cr": ("dense-csv", b",a,b\ra,0,1\rb,2,0\r", ("a", "b")),
    "crlf": ("dense-csv", b",a,b\r\na,0,1.5\r\nb,inf,0\r\n", ("a", "b")),
    "quoted-crlf-label": ("dense-csv", b',"x\r\ny",b\r\n"x\r\ny",0,1\r\nb,2,0\r\n', ("x\ny", "b")),
    "quoted-cr-label": ("dense-csv", b',"x\ry",b\n"x\ry",0,1\rb,2,0', ("x\ny", "b")),
    "bom-utf8": ("dense-csv", b"\xef\xbb\xbf,\xc3\xa9,b\n\xc3\xa9,0,1\nb,2,0\n", ("\u00e9", "b")),
    "edge-list-cr": ("edge-list", b"# pairs\ra\tb\t1\rb\ta\t2\r", ("a", "b")),
    "edge-list-crlf": ("edge-list", b"a\tb\t1\r\n\r\nb\ta\t2\r\n", ("a", "b")),
    "uses-cr": ("uses", b",s1,s2\rs1,90,30\rs2,10,70\r", ("s1", "s2")),
}


@pytest.mark.parametrize("fmt, data, labels", SAME_FILE_CASES.values(), ids=SAME_FILE_CASES)
def test_one_file_reads_the_same_from_every_source(tmp_path, monkeypatch, fmt, data, labels):
    import dioidclust.cli

    path = tmp_path / "input.txt"
    path.write_bytes(data)
    name = "load_uses_table" if fmt == "uses" else "load_network"
    load = getattr(network, name)
    kwargs = {} if fmt == "uses" else {"fmt": fmt}
    text = data.decode()  # inline text holds a line end, so it is not taken for a path
    got = [load(source, **kwargs) for source in (path, data, io.BytesIO(data), io.StringIO(text), text)]

    def recording(source, *args, **kwargs):
        assert isinstance(source.read(0), bytes) and source.fileno() >= 0  # the file as opened, in binary mode
        got.append(load(source, *args, **kwargs))
        return got[-1]

    monkeypatch.setattr(dioidclust.cli, name, recording)
    assert dioidclust.cli.main(["validate", "--input", str(path), "--format", fmt], stdout=io.StringIO()) == 0
    assert len(got) == 6
    bits = [(table.flow if fmt == "uses" else table.dissim).view(np.uint64).tolist() for table in got]
    for table, matrix in zip(got, bits):
        assert table.labels == labels and matrix == bits[0]


@pytest.mark.parametrize(
    "data, message",
    [
        (b",a,b\na,0,1\nb,\xff,0\n", r"^line 3: byte 0xff is not valid UTF-8$"),
        (b",a,b\r\na,0,1\r\n\xc3", r"^line 3: byte 0xc3 is not valid UTF-8$"),
        (b",a,b\ra,0,1\r\rb,\xe9,0", r"^line 4: byte 0xe9 is not valid UTF-8$"),
    ],
    ids=["lf", "crlf-truncated", "cr"],
)
def test_a_byte_that_is_not_utf8_is_named_with_its_line(tmp_path, data, message):
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    for source in (data, io.BytesIO(data), path):
        with pytest.raises(NetworkFormatError, match=message):
            load_network(source)


# Fragments of input, among them every line end, quotes, a BOM, invalid UTF-8, \v and U+2028.
_FRAGMENTS = st.sampled_from([
    b"\n", b"\r", b"\r\n", b",", b"\t", b'"', b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xe2\x80", b"\x0b",
    "\u2028".encode(), "\x85".encode(), b"\x0c", b"#", b" ", b"a", b"b", b"0", b"1", b"2.5", b"-", b"e", b"inf",
    b"a\tb\t1", b",a,b",
])


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.binary(max_size=80), st.lists(_FRAGMENTS, max_size=40).map(b"".join)))
@example(b",a\ra,0\r\xff")
@example(b'"' + b"x" * 140_000 + b'"')  # one field past csv.field_size_limit()
def test_every_failure_on_arbitrary_bytes_is_a_format_error(data):
    for load in (lambda d: load_network(d, fmt="dense-csv"), lambda d: load_network(d, fmt="edge-list"),
                 load_uses_table):
        try:
            load(data)
        except NetworkFormatError:
            pass


def test_edge_list_comment_lines_are_skipped():
    net = load_network(b"# header\na\tb\t1\n  # indented\n#\tsrc\tdst\nb\ta\t2\n", fmt="edge-list")
    assert net.labels == ("a", "b")
    assert net.dissim.tolist() == [[0.0, 1.0], [2.0, 0.0]]


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
    with pytest.raises(NetworkFormatError, match=r"uses table must be square, got \(1, 2\)"):
        UsesTable(("a",), np.zeros((1, 2)))
    with pytest.raises(NetworkFormatError, match=r"NaN flow at \(0, 1\)"):
        UsesTable(("a", "b"), np.array([[0.0, np.nan], [1.0, 0.0]]))
    with pytest.raises(NetworkFormatError, match=r"^uses table flows must be finite, got inf at \(a, b\)$"):
        UsesTable(("a", "b"), np.array([[1.0, np.inf], [1.0, 1.0]]))
    with pytest.raises(KeyError, match="unknown node 'z'"):
        Network(("a", "b"), np.zeros((2, 2))).index("z")
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
    "1.2.3", ".", "e5", "1e", "1e+", "- 1", "+-1", "0x10", "1e5.5",
)


def _sequential_dense(text):
    """The dense-CSV reader the block conversion replaced: csv.reader, then each row's checks and cells in line order.

    It reads the text the loader's parsers see, with CRLF and then a lone CR folded to LF.
    """
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    rows = [row for row in csv.reader(io.StringIO(text)) if row and any(c.strip() for c in row)]
    if len(rows) < 2:
        raise NetworkFormatError(f"dense CSV needs a header and at least one row, got {len(rows)} lines")
    header = [c.strip() for c in rows[0][1:]]
    labels = _check_labels(header, len(header))
    n = len(labels)
    if len(rows) - 1 != n:
        raise NetworkFormatError(f"network has {n} columns but {len(rows) - 1} data rows")
    matrix = np.empty((n, n))
    for i, row in enumerate(rows[1:]):
        row_label = row[0].strip()
        if row_label != labels[i]:
            raise NetworkFormatError(f"row {i + 1} label {row_label!r} does not match column label {labels[i]!r}")
        if len(row) - 1 != n:
            raise NetworkFormatError(f"row {row_label!r} has {len(row) - 1} cells, expected {n}")
        for j, cell in enumerate(row[1:]):
            matrix[i, j] = _parse_cell(cell, f"({row_label}, {labels[j]})")
    return labels, matrix


def _loaded(text):
    net = load_network(text.encode(), strict=False)
    return net.labels, net.dissim


def _outcome(read, text):
    """Labels and value bit patterns (-0.0 stays -0.0), or the error's type and message."""
    try:
        labels, matrix = read(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return labels, matrix.view(np.uint64).tolist()


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from(CELL_SPELLINGS), min_size=n, max_size=n), min_size=n, max_size=n)))
@example([["-0", "0"], ["2", "-0"]])
@example([["1", "2", "1e400"], ["1", "1", "1"], ["1", "1", "x"]])
@example([[""]])  # np.loadtxt warns on input without data, an error under -W error
def test_dense_rows_parse_as_cell_by_cell(cells):
    n = len(cells)
    text = "," + ",".join(f"n{j}" for j in range(n)) + "\n"
    text += "".join(f"n{i}," + ",".join(row) + "\n" for i, row in enumerate(cells))
    assert _outcome(_loaded, text) == _outcome(_sequential_dense, text)


def _mutate(kind, lines, i, k):
    """Apply one structural change to the cell lists of a dense CSV at line i, a value cell picked by k."""
    row = lines[i]
    j = 1 + k % (len(row) - 1) if len(row) > 1 else 0
    if kind == "label":
        row[0] = "zz"
    elif kind == "extra-cell":
        row.append("1")
    elif kind == "missing-cell" and len(row) > 1:
        row.pop()
    elif kind == "trailing-comma":
        row.append("")
    elif kind == "missing-row":
        del lines[i]
    elif kind in ("blank-line", "comma-line"):
        lines.insert(i, [" \t\xa0"] if kind == "blank-line" else ["", " ", ""])  # \xa0 is whitespace to str.strip()
    elif kind == "quoted-cell":
        row[j] = f'"{row[j]}"'
    elif kind == "quoted-comma-cell":
        row[j] = '"1,5"'
    elif kind in ("quoted-label", "comma-label") and i < len(lines[0]):  # in its row and its column
        lines[0][i] = row[0] = f'"{row[0]}"' if kind == "quoted-label" else '"x,y"'
    elif kind == "cr-in-cell":
        row[j] += "\r"


MUTATIONS = ("label", "extra-cell", "missing-cell", "trailing-comma", "missing-row", "blank-line", "comma-line",
             "quoted-cell", "quoted-comma-cell", "quoted-label", "comma-label", "cr-in-cell")
PLAIN_CELLS = ("1", "2.5", "0.30000000000000004", "-0", " 7 ", "1e-3", "4.9e-324")


@st.composite
def mutated_dense_texts(draw):
    """A dense CSV of plain and other cells, with up to three structural changes, so faults may lie in two lines."""
    n = draw(st.integers(1, 4))
    cell = st.one_of(st.sampled_from(PLAIN_CELLS), st.sampled_from(PLAIN_CELLS), st.sampled_from(CELL_SPELLINGS))
    lines = [["", *(f"n{j}" for j in range(n))]]
    lines += [[f"n{i}", *draw(st.lists(cell, min_size=n, max_size=n))] for i in range(n)]
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        if len(lines) > 1:  # the header stays
            _mutate(kind, lines, draw(st.integers(1, len(lines) - 1)), draw(st.integers(0, 3)))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(",".join(cells) for cells in lines) + draw(st.sampled_from([ending, ""]))


@settings(max_examples=500, deadline=None)
@given(mutated_dense_texts())
@example(",a,b\r\na,0,1\r\nb,2,0\r\n")
@example(',"a,1",b\n"a,1",0,1\nb,2,0\n')
@example(",a,b\na,0,1,\nb,x,0\n")  # two faults: the first line's is named
@example(",a,b\na,0,1e400\nb,,0\nc,1,1\n")
@example(',a,b\na,0,"1,5"\nb,2,0\n')
@example(',a,b\na,"1,5"\nb,2,0\n')  # one quoted cell holding a comma: a cell too few, not a value 5
def test_dense_reader_matches_the_sequential_reader(text):
    assert _outcome(_loaded, text) == _outcome(_sequential_dense, text)


def test_only_the_row_with_an_inf_cell_is_read_cell_by_cell(monkeypatch, rng):
    n = 64
    a = rng.uniform(1.0, 2.0, (n, n))
    np.fill_diagonal(a, 0.0)
    a[5, 7] = np.inf
    text = save_network(Network(tuple(f"n{i}" for i in range(n)), a))
    places = []

    def counted(cell, where):
        places.append(where)
        return _parse_cell(cell, where)

    monkeypatch.setattr(network, "_parse_cell", counted)
    assert np.array_equal(load_network(text).dissim, a)
    assert places == [f"(n5, n{j})" for j in range(n)]


@pytest.mark.parametrize("blank", ["", "  "])
def test_only_the_rows_with_a_blank_cell_are_read_cell_by_cell(monkeypatch, rng, blank):
    # A blank cell is an absent edge, +inf: it keeps its row out of the block, never the whole file.
    n = 64
    a = rng.uniform(1.0, 2.0, (n, n))
    np.fill_diagonal(a, 0.0)
    a[5, 7] = a[9, 0] = np.inf
    text = save_network(Network(tuple(f"n{i}" for i in range(n)), a)).replace(",inf", "," + blank)
    places = []

    def counted(cell, where):
        places.append(where)
        return _parse_cell(cell, where)

    monkeypatch.setattr(network, "_parse_cell", counted)
    assert np.array_equal(load_network(text).dissim, a)
    assert places == [f"(n{i}, n{j})" for i in (5, 9) for j in range(n)]


@pytest.mark.parametrize("space", ["\t", " \t ", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u3000"])
def test_a_blank_cell_of_other_whitespace_is_read_once(monkeypatch, rng, space):
    # np.loadtxt refuses such a cell, so its row stays out of the block instead of failing it.
    n = 16
    labels = tuple(f"n{i}" for i in range(n))
    a = rng.uniform(1.0, 2.0, (n, n))
    np.fill_diagonal(a, 0.0)
    a[5, 7] = np.inf
    text = save_network(Network(labels, a)).replace(",inf", "," + space)
    reads, rows = [], []

    def counted(original, calls):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(network, "_dense_values", counted(network._dense_values, reads))
    monkeypatch.setattr(network, "_parse_row", counted(network._parse_row, rows))
    assert load_network(text).dissim.view(np.uint64).tolist() == a.view(np.uint64).tolist()
    assert len(reads) == 1 and [label for _, label, _ in rows] == ["n5"]
    # The first fault in line order is named: in a block row above it, in the row itself, or both.
    lines = text.split("\n")
    for faults in ([3], [5], [2, 5]):
        faulty = lines.copy()
        for i in faults:
            faulty[i + 1] = faulty[i + 1].replace(",", ",x", 1)
        faulty = "\n".join(faulty)
        error, message = _outcome(_loaded, faulty)
        assert (error, message) == _outcome(_sequential_dense, faulty)
        assert message.startswith("unparsable value 'x") and message.endswith(f" at (n{faults[0]}, n0)")


def test_np_loadtxt_reads_cells_as_the_block_conversion_needs():
    """The behaviour of np.loadtxt that the dense reader's one block call relies on, pinned for every numpy in CI."""
    def read(*lines):
        return np.loadtxt(list(lines), delimiter=",", dtype=float, ndmin=2, comments=None, max_rows=len(lines))

    for cell in ("1.2.3", "e", ".", "e5", "1e", "1e+", "- 1", "+-1", "--1", "1 2", "1e5.5", "1,,2", "1, ,2", " ", "\t"):
        with pytest.raises(ValueError):
            read(cell)
    with pytest.raises(ValueError):
        read("1,2", "3")
    for cell in (" 2.5 ", "+3", ".5", "7.", "-0", "0.30000000000000004", "4.9e-324"):
        assert read(cell).view(np.uint64).tolist() == [[np.float64(float(cell)).view(np.uint64)]], cell
    assert read("1e400").tolist() == [[math.inf]]
    assert read("1", "2").shape == (2, 1)
    for cell in ("\t", "\xa0", "1\n2"):  # a blank cell, and a quoted cell holding a line end
        with pytest.raises(ValueError):
            read(f"1,{cell},2")


# Digits and the rest of a decimal; whitespace to str.strip() or to numpy; letters of inf, nan and Infinity;
# then letters of hex floats ("0x1p3"), Fortran exponents ("1d5") and a non-ASCII digit.
_CELL_ALPHABET = ("0123456789.eE+-_" + " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000"
                  + "infatyINFATY" + "xpd\u0663")


@settings(max_examples=1000, deadline=None)
@given(st.text(st.sampled_from(_CELL_ALPHABET), max_size=8))
@example(" 1\x85")
@example("\u30001e5\t")
@example("1_0")
@example("\u0663")
def test_np_loadtxt_reads_a_cell_as_finite_only_as_the_cell_reader_does(cell):
    """Every cell np.loadtxt reads as finite, _parse_cell reads to the same bits: the block is read by the first."""
    try:
        block = np.loadtxt([f"1,{cell},1"], delimiter=",", dtype=float, ndmin=2, comments=None, max_rows=1)
    except ValueError:
        return  # the reader then reads every row again cell by cell
    assert block.shape == (1, 3)
    if math.isfinite(block[0, 1]):  # a non-finite value's row is read again cell by cell
        assert np.float64(_parse_cell(cell, "here")).view(np.uint64) == block[0, 1:2].view(np.uint64)[0]


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


@st.composite
def networks_with_defects(draw):
    """A valid network on 1..6 nodes with up to three cells overwritten by any of
    0, -0.0, 1, 2, -1, +inf and -inf, on or off the diagonal."""
    n = draw(st.integers(1, 6))
    a = np.array(draw(st.lists(st.sampled_from([1.0, 2.0, np.inf]), min_size=n * n, max_size=n * n)))
    a = a.reshape(n, n)
    np.fill_diagonal(a, draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)))
    cells = st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, np.inf, -np.inf])
    for i, j, value in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), cells), max_size=3)):
        a[i, j] = value
    return Network(tuple(f"n{i}" for i in range(n)), a)


def _refusal(run, net, error=ValueError):
    try:
        run(net)
    except error as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(networks_with_defects())
def test_the_strict_loader_and_the_methods_refuse_what_validate_network_reports(net):
    report = validate_network(net)
    finding = None if report.is_valid else report.lines()[1].strip()
    assert _refusal(lambda net: load_network(save_network(net)), net, NetworkFormatError) == finding
    from_methods = None if finding is None else f"network violates dissimilarity invariants: {finding}"
    assert _refusal(reciprocal, net) == from_methods
    assert _refusal(lambda net: semi_reciprocal(net, 3), net) == from_methods
