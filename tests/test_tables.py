"""The input tables (nodes, edges and frame CSVs) are parsed by numpy's C
reader when the csv module would read the same rows, and by the row reader
(``graph.read_rows``/``parse_rows``) otherwise; both must give the same arrays
or the same error."""

import contextlib
import csv
import io
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netcrf import DataError, build_geometric_network, generate_positions, graph, ingest_network
from netcrf.cli import _load_real_data, main, read_frame_csv


def row_reader_only():
    """Within this context every table goes to the row reader, as before
    numpy's C reader was used."""
    return mock.patch.object(graph, "_numpy_columns", return_value=None)


def csv_reader_calls():
    """Within this context ``graph.csv.reader`` counts its calls in ``.call_count``."""
    return mock.patch.object(graph.csv, "reader", wraps=csv.reader)


def frame_arrays(frame) -> dict:
    return {name: (getattr(frame, name).dtype.str, getattr(frame, name).tobytes())
            for name in ("ids", "y", "d", "t", "f")} | {"n_total": frame.n_total}


def network_arrays(network) -> dict:
    return {"n": network.n, "edges": network.edges.tobytes(), "degree": network.degree.tobytes()}


def outcome(load, *texts):
    """What ``load`` makes of the texts: its arrays, or the error it raises.
    A DataError exits 3 whatever its text, so equal outcomes exit alike.
    Before Python 3.11 the csv module rejects a NUL with csv.Error."""
    try:
        result = load(*map(io.StringIO, texts))
    except (DataError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, tuple):  # read_frame_csv: (frame, metadata)
        return frame_arrays(result[0]), result[1]
    if isinstance(result, graph.Network):
        return network_arrays(result)
    return frame_arrays(result)


def well_formed_network(seed: int = 4, n: int = 400) -> tuple[str, str]:
    """nodes.csv (id,y,d) and edges.csv (src,dst) texts of a geometric network
    with distinct, unordered ids and edges listed in no order."""
    rng = np.random.default_rng(seed)
    network = build_geometric_network(generate_positions(n, seed), 0.08)
    ids = rng.choice(10 * n, size=n, replace=False) + 1
    y = rng.normal(size=n)
    d = rng.integers(0, 2, size=n)
    nodes = "id,y,d\n" + "".join(f"{i},{format(v, '.17g')},{k}\n" for i, v, k in zip(ids, y, d))
    pairs = ids[network.edges[rng.permutation(network.edge_count)]]
    edges = "src,dst\n" + "".join(f"{a},{b}\n" for a, b in pairs)
    return nodes, edges


@pytest.fixture(scope="module")
def simulated_frame_text(tmp_path_factory) -> str:
    out = tmp_path_factory.mktemp("simulated")
    assert main(["simulate", "--n-units", "600", "--scenario", "iv", "--seed", "8",
                 "--out", str(out)]) == 0
    return (out / "frame.csv").read_text(encoding="utf-8")


class TestNumpyReaderIsTaken:
    """A fast path that always fell back would pass every other test."""

    def test_well_formed_network_files_skip_the_row_reader(self):
        nodes, edges = well_formed_network()
        with csv_reader_calls() as reader:
            frame = _load_real_data(io.StringIO(nodes), io.StringIO(edges))
            network = ingest_network(io.StringIO(nodes.replace("id,y,d", "id")),
                                     io.StringIO(edges))
        assert reader.call_count == 0
        with row_reader_only():
            assert frame_arrays(frame) == frame_arrays(
                _load_real_data(io.StringIO(nodes), io.StringIO(edges)))
            assert network_arrays(network) == network_arrays(
                ingest_network(io.StringIO(nodes.replace("id,y,d", "id")), io.StringIO(edges)))

    def test_simulated_frame_skips_the_row_reader(self, simulated_frame_text):
        with csv_reader_calls() as reader:
            frame, metadata = read_frame_csv(io.StringIO(simulated_frame_text))
        assert reader.call_count == 0 and metadata["seed"] == 8
        with row_reader_only():
            expected, expected_metadata = read_frame_csv(io.StringIO(simulated_frame_text))
        assert frame_arrays(frame) == frame_arrays(expected)
        assert metadata == expected_metadata

    def test_bad_row_after_numpy_parse_is_named_by_the_row_reader(self):
        nodes, edges = well_formed_network()
        lines = nodes.split("\n")
        lines[7] = lines[7].rsplit(",", 2)[0] + ",inf," + lines[7].rsplit(",", 1)[1]
        with csv_reader_calls() as reader, pytest.raises(DataError) as err:
            _load_real_data(io.StringIO("\n".join(lines)), io.StringIO(edges))
        assert str(err.value) == "nodes row 8: outcome y is not finite ('inf')"
        assert reader.call_count == 1


def edit_line(text: str, k: int, edit) -> str:
    lines = text.split("\n")
    lines[k] = edit(lines[k])
    return "\n".join(lines)


# each variant of a well-formed file, and whether the row reader reads it;
# line 4 of each file holds an id with the digits 10
VARIANTS = {
    "crlf line ends": (lambda text: text.replace("\n", "\r\n"), False),
    "blank lines": (lambda text: text.replace("\n", "\n\n", 3) + "\n\n", False),
    "quoted id": (lambda text: edit_line(text, 4, lambda line: '"{}",{}'.format(
        *line.split(",", 1))), True),
    "id written 1_0": (lambda text: edit_line(text, 4, lambda line: line.replace("10", "1_0", 1)),
                       True),
}


class TestVariantsGiveTheSameArrays:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_network_files(self, variant):
        nodes, edges = well_formed_network()
        node_id = nodes.split("\n")[4].split(",")[0]
        nodes = edit_line(nodes, 4, lambda line: line.replace(",", "10,", 1))
        edges = "\n".join(",".join(node_id + "10" if cell == node_id else cell
                                   for cell in line.split(",")) for line in edges.split("\n"))
        edit, row_reader = VARIANTS[variant]
        expected = _load_real_data(io.StringIO(nodes), io.StringIO(edges))
        with csv_reader_calls() as reader:
            got = _load_real_data(io.StringIO(edit(nodes)), io.StringIO(edges))
        assert frame_arrays(got) == frame_arrays(expected)
        assert (reader.call_count > 0) == row_reader

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_frame_file(self, variant, simulated_frame_text):
        # line 0 is the metadata comment and line 1 the header
        text = edit_line(simulated_frame_text, 4, lambda line: "1010" + line)
        edit, row_reader = VARIANTS[variant]
        expected = read_frame_csv(io.StringIO(text))
        with csv_reader_calls() as reader:
            got = read_frame_csv(io.StringIO(edit(text)))
        assert frame_arrays(got[0]) == frame_arrays(expected[0])
        assert got[1] == expected[1]
        assert (reader.call_count > 0) == row_reader


# cells that the csv module, int() or float() read differently from numpy's C
# reader (numpy reads the Devanagari digit two, U+0968, as 2360), that no
# reader accepts, or that a check rejects
ODD_CELLS = ['"1"', '"1,2"', '"2\n3"', " 7 ", "  ", "", "+1", "-0", "007", "1.0", "1_0",
             "1e3", "0x1", str(2 ** 63), str(-2 ** 63), str(-2 ** 63 - 1), "nan", "-inf",
             "Infinity", "1e400", "\ufeff1", "1\x00", "\x1c1", "1\x1f", "1\x0b", "\x0c2",
             "\u0661", "\u0968", "1\xa0", "1 ", "x", "2", "0", "-1", "9"]
# lines that one reader might skip and another read
ODD_LINES = ["", " ", "\t", "\x0c", "\x0b", "\x1c", "\x85", "#", "# {}", ",", "\x00"]
LINE_ENDS = ["\n", "\r\n", "\r"]
FAULTS = ["cell", "copy", "extra", "drop", "line", "bom", "cut", "mixed"]

reals = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g"))


@st.composite
def table_text(draw, header: str, rows: list[list[str]]) -> str:
    """A CSV table of ``rows`` below ``header``, with one line end. Three in
    four drawn tables get one or two faults: an odd cell, a cell copied from
    another, an extra or a missing column, an odd line, a BOM, no final line
    end, or mixed line ends."""
    lines = [header] + [",".join(row) for row in rows]
    ends = [draw(st.sampled_from(LINE_ENDS))] * len(lines)
    cells = [cell for row in rows for cell in row] or [""]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        fault = draw(st.sampled_from(FAULTS))
        k = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        fields = lines[k].split(",")
        at = draw(st.integers(0, len(fields) - 1))
        if fault == "cell":
            fields[at] = draw(st.sampled_from(ODD_CELLS))
        elif fault == "copy":
            fields[at] = draw(st.sampled_from(cells))
        elif fault == "extra":
            fields.append(draw(st.sampled_from(["", "x", "7", '"a,b"'])))
        elif fault == "drop":
            fields.pop()
        elif fault == "line":
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, draw(st.sampled_from(ODD_LINES)))
            ends.insert(at, ends[0])
        elif fault == "bom":
            lines[0] = "\ufeff" + lines[0]
        elif fault == "cut":
            ends[-1] = ""
        elif fault == "mixed":
            ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(ends),
                                 max_size=len(ends)))
        if fault in ("cell", "copy", "extra", "drop"):
            lines[k] = ",".join(fields)
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def network_texts(draw, node_columns: str) -> tuple[str, str]:
    """Nodes (header ``node_columns``) and edges texts of a network with
    distinct ids and edges that join two known ids, before faults are drawn in."""
    node_ids = draw(st.lists(st.integers(-2 ** 40, 2 ** 40).map(str), min_size=1, max_size=10,
                             unique=True))
    width = len(node_columns.split(","))
    nodes = [[i, draw(reals), draw(st.sampled_from(["0", "1"]))][:width] for i in node_ids]
    edges = []
    if len(node_ids) > 1:
        pair = st.lists(st.sampled_from(node_ids), min_size=2, max_size=2, unique=True)
        edges = draw(st.lists(pair, max_size=15))
    return draw(table_text(node_columns, nodes)), draw(table_text("src,dst", edges))


@st.composite
def frame_text(draw) -> str:
    """A frame CSV (``id,y,d,t,f``) with faults and ``#`` lines drawn in."""
    rows = []
    for unit in draw(st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=10, unique=True)):
        f = draw(st.integers(1, 4))
        rows.append([str(unit), draw(reals), draw(st.sampled_from(["0", "1"])),
                     str(draw(st.integers(0, f))), str(f)])
    lines = draw(table_text("id,y,d,t,f", rows)).split("\n")
    for _ in range(draw(st.integers(0, 2))):
        comment = draw(st.sampled_from(['# {"n_total": 40}', "# not json", "# [1, 2]",
                                        '#{"seed": 3}']))
        lines.insert(draw(st.integers(0, len(lines))), comment)
    return "\n".join(lines)


class TestDifferential:
    """For every drawn file the two-stage reader and the row reader alone give
    byte-equal arrays, or the same error."""

    @settings(deadline=None, max_examples=300)
    @given(network_texts("id,y,d"))
    # the csv module reads lines 2-3 of the nodes file as one row, with a quoted
    # newline in its fourth field; numpy would read two rows
    @example(('id,y,d\n5,1.5,0,"x\n7,2.5,1,y"\n', "src,dst\n5,7\n"))
    # integer fields that parse only as floats, or lie beyond int64
    @example(("id,y,d\n5,1.5,1.0\n7,2.5,0\n", "src,dst\n5,7\n"))
    @example(("id,y,d\n5,1.5,1.5\n7,2.5,0\n", "src,dst\n5,7\n"))
    @example((f"id,y,d\n5,1.5,1\n{2 ** 63},2.5,0\n", f"src,dst\n5,{2 ** 63}\n"))
    def test_network_files(self, texts):
        got = outcome(_load_real_data, *texts)
        with row_reader_only():
            assert got == outcome(_load_real_data, *texts)

    @settings(deadline=None, max_examples=200)
    @given(network_texts("id"))
    def test_degree_stats_files(self, texts):
        got = outcome(ingest_network, *texts)
        with row_reader_only():
            assert got == outcome(ingest_network, *texts)

    @settings(deadline=None, max_examples=300)
    @given(frame_text())
    # int() reads t as 2, numpy's C reader as 2360
    @example("id,y,d,t,f\n1,0.5,1,\u0968,4\n")
    def test_frame_files(self, text):
        got = outcome(read_frame_csv, text)
        with row_reader_only():
            assert got == outcome(read_frame_csv, text)


def loadtxt_casting_floats(text, dtype, **kwargs):
    """``np.loadtxt`` as numpy ran it from 1.23 until a deprecation expired: an
    integer field that parses only as a float is cast, with a DeprecationWarning."""
    try:
        return LOADTXT(text, dtype=dtype, **kwargs)
    except ValueError:
        text.seek(0)
        floats = LOADTXT(text, dtype=[(name, np.float64) for name, _ in dtype], **kwargs)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return floats.astype(dtype)


LOADTXT = np.loadtxt


class TestNumpyThatCastsFloats:
    """A numpy that casts a float in an integer column, warning only, must not
    let the reader accept a row that the row reader rejects."""

    @pytest.mark.parametrize("cell", ["1.0", "1.7", "nan", "1e3"])
    def test_treatment_written_as_float(self, cell):
        texts = (f"id,y,d\n5,1.5,1\n7,2.5,{cell}\n", "src,dst\n5,7\n")
        with mock.patch.object(np, "loadtxt", loadtxt_casting_floats):
            got = outcome(_load_real_data, *texts)
        with row_reader_only():
            expected = outcome(_load_real_data, *texts)
        assert got == expected == (
            "DataError", f"nodes row 3: malformed row ['7', '2.5', '{cell}']")

    @pytest.mark.parametrize("cell", ["1.0", "1e3", str(2 ** 63)])
    def test_id_written_as_float(self, cell):
        texts = (f"id,y,d\n5,1.5,1\n{cell},2.5,0\n", f"src,dst\n5,{cell}\n")
        with mock.patch.object(np, "loadtxt", loadtxt_casting_floats):
            got = outcome(_load_real_data, *texts)
        with row_reader_only():
            assert got == outcome(_load_real_data, *texts)
        assert got[0] == "DataError"


class TestUnreadableFiles:
    """A path that is no readable UTF-8 file is a data error naming it, on
    either path of the reader."""

    @pytest.mark.parametrize("what", ["nodes", "edges", "frame", "config"])
    def test_directory(self, tmp_path, capsys, what):
        code, err = self.run_fit(tmp_path, capsys, what, None)
        assert code == 3
        assert err == f"data error: {what} file {tmp_path / what} cannot be read: Is a directory\n"

    @pytest.mark.parametrize("what", ["nodes", "edges", "frame", "config"])
    def test_byte_that_is_not_utf8(self, tmp_path, capsys, what):
        for reader in (contextlib.nullcontext(), row_reader_only()):
            with reader:
                code, err = self.run_fit(tmp_path, capsys, what, b"\r\n\xff\n")
            assert code == 3
            assert err == (f"data error: {what} file {tmp_path / what} line 3: "
                           "byte 0xff is not UTF-8 (invalid start byte)\n")

    @staticmethod
    def run_fit(tmp_path, capsys, what, damage):
        """``fit`` with the ``what`` file replaced by a directory (``damage``
        None) or by a valid file with ``damage`` after its second line."""
        files = {"nodes": "id,y,d\n1,0.5,1\n2,1.5,0\n", "edges": "src,dst\n1,2\n",
                 "frame": "id,y,d,t,f\n1,0.5,1,0,1\n2,1.5,0,1,1\n",
                 "config": '{\n"models": ["t"]\n}\n'}
        for name, text in files.items():
            path = tmp_path / name
            if name == what and damage is None:
                path.mkdir(exist_ok=True)
                continue
            data = text.encode()
            if name == what:
                first, second, rest = data.split(b"\n", 2)
                data = first + b"\n" + second + damage + rest
            path.write_bytes(data)
        source = ["--frame", str(tmp_path / "frame")] if what == "frame" else [
            "--nodes", str(tmp_path / "nodes"), "--edges", str(tmp_path / "edges")]
        code = main(["fit", "--config", str(tmp_path / "config"), *source,
                     "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err
