import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcrf import (
    DataError,
    Network,
    PositionSet,
    build_geometric_network,
    calibrate_radius,
    degree_stats,
    generate_positions,
    ingest_network,
    network_from_edge_pairs,
)
from netcrf.graph import _close_pairs, parse_rows, treated_neighbor_counts


def all_pairs_oracle(coords, radius):
    """Every pair i < j at distance <= ``radius``, sorted lexicographically,
    found by testing all n(n - 1)/2 pairs with the build's arithmetic
    (dx^2 + dy^2 <= radius^2), a block of rows at a time: an oracle that
    shares nothing with the neighbour search."""
    n = len(coords)
    parts = [np.empty((0, 2), dtype=np.int64)]
    for a in range(0, n, 200):
        dx = coords[a:a + 200, None, 0] - coords[None, :, 0]
        dy = coords[a:a + 200, None, 1] - coords[None, :, 1]
        i, j = np.nonzero(dx ** 2 + dy ** 2 <= radius * radius)
        i += a
        parts.append(np.column_stack([i[i < j], j[i < j]]))
    return np.concatenate(parts)


def assert_matches_oracle(coords, radius):
    net = build_geometric_network(PositionSet(n=len(coords), coords=coords), radius)
    expected = all_pairs_oracle(coords, radius)
    assert net.edges.dtype == np.int64 and np.array_equal(net.edges, expected)
    assert net.degree.dtype == np.int64
    assert np.array_equal(net.degree, np.bincount(expected.ravel(), minlength=len(coords)))
    return net


def brute_force_edges(coords, radius):
    """Independent all-pairs oracle for the neighbor search, in pure Python."""
    n = len(coords)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            dx = coords[i, 0] - coords[j, 0]
            dy = coords[i, 1] - coords[j, 1]
            if dx * dx + dy * dy <= radius * radius:
                edges.add((i, j))
    return edges


class TestGeneratePositions:
    def test_single_point_in_bounds(self):
        pos = generate_positions(1, 3)
        assert pos.coords.shape == (1, 2)
        assert 0.0 <= pos.coords[0, 0] <= 1.0
        assert 0.0 <= pos.coords[0, 1] <= 1.0

    def test_law_of_large_numbers(self):
        # uniform-moment oracle: E[x] = 0.5, so the sample mean of 1e5 draws
        # lands within 0.005 (> 3 standard errors)
        pos = generate_positions(100_000, 99)
        assert abs(pos.coords[:, 0].mean() - 0.5) < 0.005
        assert abs(pos.coords[:, 1].mean() - 0.5) < 0.005

    def test_deterministic(self):
        a = generate_positions(5, 17)
        b = generate_positions(5, 17)
        assert np.array_equal(a.coords, b.coords)
        c = generate_positions(5, 18)
        assert not np.array_equal(a.coords, c.coords)

    def test_zero_units_rejected(self):
        with pytest.raises(ValueError):
            generate_positions(0, 1)


class TestBuildGeometricNetwork:
    def test_far_apart_pair(self):
        pos = PositionSet(n=2, coords=np.array([[0.1, 0.1], [0.9, 0.9]]))
        net = build_geometric_network(pos, 0.025)
        assert net.edge_count == 0
        assert list(net.degree) == [0, 0]

    def test_chain_within_radius(self):
        pos = PositionSet(n=3, coords=np.array([[0.5, 0.5], [0.51, 0.5], [0.52, 0.5]]))
        net = build_geometric_network(pos, 0.0125)
        assert list(net.degree) == [1, 2, 1]

    def test_distance_tie_counts_as_friend(self):
        pos = PositionSet(n=2, coords=np.array([[0.0, 0.0], [0.0, 0.025]]))
        net = build_geometric_network(pos, 0.025)
        assert net.edge_count == 1

    def test_nonpositive_radius_rejected(self):
        pos = generate_positions(3, 0)
        with pytest.raises(ValueError):
            build_geometric_network(pos, 0.0)
        with pytest.raises(ValueError):
            build_geometric_network(pos, -0.1)

    @pytest.mark.parametrize("seed,n,radius", [
        (0, 50, 0.05), (1, 120, 0.1), (2, 200, 0.025), (3, 200, 0.3), (4, 7, 1.5),
    ])
    def test_matches_brute_force(self, seed, n, radius):
        pos = generate_positions(n, seed)
        net = build_geometric_network(pos, radius)
        assert set(map(tuple, net.edges.tolist())) == brute_force_edges(pos.coords, radius)

    def test_adjacency_symmetry_and_degree_sum(self):
        pos = generate_positions(300, 8)
        net = build_geometric_network(pos, 0.06)
        assert net.degree.sum() == 2 * net.edge_count
        # each edge is one unordered pair, counted in the degree of both ends
        assert np.array_equal(np.bincount(net.edges.ravel(), minlength=net.n), net.degree)

    def test_deterministic_serialization(self):
        a = build_geometric_network(generate_positions(400, 5), 0.04)
        b = build_geometric_network(generate_positions(400, 5), 0.04)
        assert a.to_json() == b.to_json()

    def test_edges_sorted_lexicographically(self):
        net = build_geometric_network(generate_positions(500, 2), 0.05)
        edges = net.edges
        assert np.all(edges[:, 0] < edges[:, 1])
        keys = edges[:, 0] * net.n + edges[:, 1]
        assert np.all(np.diff(keys) > 0)

    @pytest.mark.parametrize("n,radius", [(300, 0.05), (2000, 0.025), (5000, 0.025)])
    def test_edges_equal_lexsort_reference(self, n, radius):
        # reference: every pair i < j tested, in lexicographic order; at the
        # benchmark's N=2000 and N=5000 the search spans several blocks
        rng = np.random.default_rng(n)
        for _ in range(3):
            assert_matches_oracle(rng.random((n, 2)), radius)

    @pytest.mark.parametrize("spacing,radius", [(2.0 ** -6, 2.0 ** -6), (2.0 ** -6, 2.0 ** -5),
                                                (1 / 8, 1 / 8), (1 / 8, 1 / 4)])
    def test_lattice_ties_on_strip_boundaries(self, spacing, radius):
        # a square lattice of spacing 2^-k: lattice neighbours are exact
        # distance ties, and every column of points (every other one at twice
        # the spacing) lies on a strip boundary. The 65 x 65 lattice spans
        # five blocks of the search
        side = round(1 / spacing) + 1
        grid = np.arange(side) * spacing
        coords = np.column_stack([np.repeat(grid, side), np.tile(grid, side)])
        net = assert_matches_oracle(coords, radius)
        if radius == spacing:
            assert net.edge_count == 2 * side * (side - 1)

    @pytest.mark.parametrize("radius", [0.5, 0.75, 1.0, 1.5, 1e-3])
    def test_one_strip_and_many_strips(self, radius):
        # radius >= 0.5 leaves at most three strips, radius 1e-3 a thousand
        assert_matches_oracle(np.random.default_rng(11).random((600, 2)), radius)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewest_points(self, n):
        for radius in (0.025, 0.5, 1.5):
            assert_matches_oracle(np.random.default_rng(n).random((n, 2)), radius)

    def test_degree_moments_match_binomial_oracle(self):
        # closed-form oracle: the marginal degree is Binomial(n-1, p) with
        # p = pi r^2 - (8/3) r^3 + r^4 / 2 (mean disk-square overlap), so
        # E[F | F>0] = (n-1) p / (1 - (1-p)^(n-1)). Averaging over networks
        # tames the seed-level noise from spatially correlated degrees.
        n, r = 2000, 0.025
        p = math.pi * r**2 - (8.0 / 3.0) * r**3 + 0.5 * r**4
        lam = (n - 1) * p
        retain = 1.0 - (1.0 - p) ** (n - 1)
        mean_oracle = lam / retain
        ef2 = (n - 1) * p * (1 - p) + lam**2
        sd_oracle = math.sqrt(ef2 / retain - mean_oracle**2)
        means, sds = [], []
        for seed in range(40, 46):
            stats = degree_stats(build_geometric_network(generate_positions(n, seed), r))
            means.append(stats.mean_f)
            sds.append(stats.sd_f)
        assert np.mean(means) == pytest.approx(mean_oracle, abs=0.1)
        assert np.mean(sds) == pytest.approx(sd_oracle, abs=0.1)


@st.composite
def bucketing_cases(draw):
    """A radius and up to 300 points on the unit square. A share of the points
    sit on cell boundaries (multiples of the radius), and a share one radius
    step right of, left of, above or below the point before them: an exact
    distance tie when the radius is a power of two. Radius 1e-3 gives cell
    keys wider than 16 bits; radii above 1 put every point in one cell."""
    radius = draw(st.floats(1e-3, 1.5) | st.sampled_from([2.0 ** -k for k in range(10)])
                  | st.sampled_from([1e-3, 1.5, 2.0, 4.0]))
    n = draw(st.sampled_from([0, 1]) | st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = rng.random((n, 2))
    kind = rng.integers(0, 3, size=n)
    coords[kind == 1] = np.floor(coords[kind == 1] / radius) * radius
    for i in np.flatnonzero(kind[1:] == 2) + 1:
        step = radius * np.eye(2)[rng.integers(2)]
        for point in (coords[i - 1] + step, coords[i - 1] - step):
            if point.min() >= 0.0 and point.max() <= 1.0:
                coords[i] = point
                break
    return coords, radius


class TestCandidatePairs:
    @settings(deadline=None)
    @given(bucketing_cases())
    def test_each_near_pair_once_and_only_from_neighbouring_cells(self, case):
        coords, radius = case
        n = len(coords)
        ci, cj = _close_pairs(coords, radius)
        assert ci.shape == cj.shape and ci.dtype == cj.dtype == np.int32
        assert not (ci == cj).any()
        keys = np.sort(np.minimum(ci, cj) * n + np.maximum(ci, cj))
        diff = coords[:, None, :] - coords[None, :, :]
        close = np.triu((diff ** 2).sum(axis=2) <= radius * radius, k=1)
        near_i, near_j = np.nonzero(close)
        assert np.array_equal(keys, near_i * n + near_j)
        cells = np.floor(coords / radius).astype(np.int64)
        assert (np.abs(cells[ci] - cells[cj]) <= 1).all()


class TestGeometricNetwork:
    @settings(deadline=None)
    @given(bucketing_cases(), st.integers(0, 2**32 - 1))
    def test_lazy_edges_match_canonical_network(self, case, seed):
        coords, radius = case
        n = len(coords)
        net = build_geometric_network(PositionSet(n=n, coords=coords), radius)
        ci, cj = _close_pairs(coords, radius)
        canonical = Network(n=n, edges=np.column_stack([ci, cj]), radius=radius)
        d = np.random.default_rng(seed).integers(0, 2, size=n)
        assert net.edge_count == canonical.edge_count
        assert net.degree.dtype == canonical.degree.dtype
        assert net.degree.tobytes() == canonical.degree.tobytes()
        t = treated_neighbor_counts(net, d)
        assert t.dtype == np.int64 and t.tobytes() == treated_neighbor_counts(canonical, d).tobytes()
        # none of the above sorts the edges
        assert "edges" not in vars(net)
        assert net.edges.dtype == canonical.edges.dtype and net.edges.shape == canonical.edges.shape
        assert net.edges.tobytes() == canonical.edges.tobytes()
        assert net.to_json() == canonical.to_json()
        clone = Network.from_json(net.to_json())
        assert clone.edges.tobytes() == net.edges.tobytes()
        assert clone.degree.tobytes() == net.degree.tobytes() and clone.radius == radius


class TestDegreeStats:
    def test_empty_network(self):
        net = Network(n=3, edges=np.empty((0, 2), dtype=int))
        stats = degree_stats(net)
        assert stats.retained_fraction == 0.0
        assert stats.mean_f is None

    def test_treatment_moments_small_example(self):
        # path 0-1-2: degrees (1,2,1); d=(1,0,1) gives t=(0,2,0)
        edges = np.array([[0, 1], [1, 2]])
        net = Network(n=3, edges=edges)
        stats = degree_stats(net, treatment=np.array([1, 0, 1]))
        assert stats.mean_f == pytest.approx(4 / 3)
        assert stats.mean_t == pytest.approx(2 / 3)
        assert stats.max_f == 2

    def test_treatment_length_mismatch(self, network_1000):
        with pytest.raises(ValueError):
            degree_stats(network_1000, treatment=np.zeros(7, dtype=int))

    def test_treated_neighbor_counts_validates_entries(self, network_1000):
        bad = np.full(network_1000.n, 2)
        with pytest.raises(ValueError):
            treated_neighbor_counts(network_1000, bad)

    def test_treated_neighbor_counts_match_scatter_add_reference(self):
        net = build_geometric_network(generate_positions(5000, 31), 0.025)
        d = np.random.default_rng(32).integers(0, 2, size=net.n)
        expected = np.zeros(net.n, dtype=np.int64)
        np.add.at(expected, net.edges[:, 0], d[net.edges[:, 1]])
        np.add.at(expected, net.edges[:, 1], d[net.edges[:, 0]])
        got = treated_neighbor_counts(net, d)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_treated_neighbor_counts_without_edges(self):
        net = Network(n=3, edges=np.empty((0, 2), dtype=int))
        got = treated_neighbor_counts(net, np.array([1, 0, 1]))
        assert got.dtype == np.int64 and np.array_equal(got, [0, 0, 0])


class TestIngestNetwork:
    def test_basic_degrees(self):
        nodes = io.StringIO("id\n1\n2\n3\n")
        edges = io.StringIO("src,dst\n1,2\n")
        net = ingest_network(nodes, edges)
        assert list(net.degree) == [1, 1, 0]

    def test_reverse_duplicate_edges_deduplicated(self):
        nodes = io.StringIO("id\n1\n2\n")
        edges = io.StringIO("src,dst\n1,2\n2,1\n")
        net = ingest_network(nodes, edges)
        assert net.edge_count == 1

    def test_self_loop_rejected(self):
        nodes = io.StringIO("id\n1\n2\n")
        edges = io.StringIO("src,dst\n1,1\n")
        with pytest.raises(DataError, match="self-loop"):
            ingest_network(nodes, edges)

    def test_unknown_id_names_row(self):
        nodes = io.StringIO("id\n1\n2\n")
        edges = io.StringIO("src,dst\n1,2\n1,9\n")
        with pytest.raises(DataError, match="row 3"):
            ingest_network(nodes, edges)

    def test_duplicate_node_id_rejected(self):
        nodes = io.StringIO("id\n1\n1\n")
        edges = io.StringIO("src,dst\n")
        with pytest.raises(DataError, match="duplicate"):
            ingest_network(nodes, edges)

    def test_bad_headers_rejected(self):
        with pytest.raises(DataError):
            ingest_network(io.StringIO("node\n1\n"), io.StringIO("src,dst\n"))
        with pytest.raises(DataError):
            ingest_network(io.StringIO("id\n1\n"), io.StringIO("a,b\n"))

    def test_blank_lines_keep_file_lines(self):
        nodes = "id\n1\n\n2\n"
        with pytest.raises(DataError, match="edges row 5:"):
            ingest_network(io.StringIO(nodes), io.StringIO("\nsrc,dst\n1,2\n\n1,9\n"))
        with pytest.raises(DataError, match="nodes row 4: expected an integer id"):
            ingest_network(io.StringIO("id\n1\n\nx\n"), io.StringIO("src,dst\n"))
        with pytest.raises(DataError, match="nodes row 4: duplicate"):
            ingest_network(io.StringIO("id\n1\n\n1\n"), io.StringIO("src,dst\n"))

    def test_crlf_line_endings(self):
        net = ingest_network(io.StringIO("id\r\n1\r\n2\r\n\r\n3\r\n"),
                             io.StringIO("src,dst\r\n3,1\r\n"))
        assert list(net.degree) == [1, 0, 1]

    def test_pairs_without_lines_count_from_one(self):
        with pytest.raises(DataError, match="edges row 2: self-loop"):
            network_from_edge_pairs([5, 6], [(5, 6), (6, 6)])
        with pytest.raises(DataError, match="nodes row 3: duplicate"):
            network_from_edge_pairs([5, 6, 5], [])

    def test_pairs_report_given_lines(self):
        with pytest.raises(DataError, match="edges row 12: unknown node id 7"):
            network_from_edge_pairs([5, 6], [(5, 6), (6, 7)], ([2, 3], [10, 12]))


def _csv_text(header: str, rows: list[str], blanks: list[int]) -> tuple[str, list[int]]:
    """CSV text with ``blanks[k]`` blank lines before line k (the header is
    line 0), and the file line of each row in ``rows``."""
    lines, numbers = [], []
    for blank, line in zip(blanks, [header] + rows):
        lines += [""] * blank
        lines.append(line)
        numbers.append(len(lines))
    return "\n".join(lines) + "\n", numbers[1:]


@st.composite
def network_files(draw):
    """Node ids, id pairs (some reversed or repeated), and both CSV texts with
    random blank lines, plus the file line of every node and edge row."""
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12, unique=True))
    pairs = []
    if len(ids) > 1:
        endpoint = st.sampled_from(ids)
        pairs = draw(st.lists(st.tuples(endpoint, endpoint).filter(lambda p: p[0] != p[1]),
                              max_size=25))
    if pairs:
        pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=5))]
        pairs = draw(st.permutations(pairs))
    nodes_text, node_lines = _csv_text(
        "id", [str(i) for i in ids],
        draw(st.lists(st.integers(0, 2), min_size=len(ids) + 1, max_size=len(ids) + 1)))
    edges_text, edge_lines = _csv_text(
        "src,dst", [f"{a},{b}" for a, b in pairs],
        draw(st.lists(st.integers(0, 2), min_size=len(pairs) + 1, max_size=len(pairs) + 1)))
    return ids, pairs, (nodes_text, node_lines), (edges_text, edge_lines)


class TestIngestProperties:
    @settings(deadline=None)
    @given(network_files())
    def test_ingest_equals_edge_pairs(self, files):
        ids, pairs, (nodes_text, _), (edges_text, _) = files
        got = ingest_network(io.StringIO(nodes_text), io.StringIO(edges_text))
        expected = network_from_edge_pairs(ids, pairs)
        assert got.n == expected.n == len(ids)
        assert np.array_equal(got.edges, expected.edges)
        assert np.array_equal(got.degree, expected.degree)
        index = {node_id: pos for pos, node_id in enumerate(ids)}
        assert {tuple(e) for e in got.edges.tolist()} == {
            tuple(sorted((index[a], index[b]))) for a, b in pairs}

    @settings(deadline=None)
    @given(network_files(), st.data())
    def test_corrupted_row_names_its_file_line(self, files, data):
        ids, pairs, (nodes_text, node_lines), (edges_text, edge_lines) = files
        targets = [("nodes", n) for n in node_lines] + [("edges", n) for n in edge_lines]
        what, line = data.draw(st.sampled_from(targets))
        text = nodes_text if what == "nodes" else edges_text
        rows = text.split("\n")
        rows[line - 1] = "x" if what == "nodes" else rows[line - 1].split(",")[0] + ",x"
        text = "\n".join(rows)
        sources = (text, edges_text) if what == "nodes" else (nodes_text, text)
        with pytest.raises(DataError, match=f"^{what} row {line}: expected"):
            ingest_network(*map(io.StringIO, sources))


def reference_edge_pairs(node_ids, pairs, node_lines, edge_lines):
    """Per-row oracle: the first error message, checked row by row (each node
    row for a repeated id, then each pair for an unknown src, an unknown dst
    and a self-loop), or the sorted distinct (min, max) index pairs."""
    index = {}
    for line, node_id in zip(node_lines, node_ids):
        if node_id in index:
            return f"nodes row {line}: duplicate node id {node_id}"
        index[node_id] = len(index)
    seen = set()
    for line, (src, dst) in zip(edge_lines, pairs):
        if src not in index:
            return f"edges row {line}: unknown node id {src}"
        if dst not in index:
            return f"edges row {line}: unknown node id {dst}"
        if src == dst:
            return f"edges row {line}: self-loop on node id {src}"
        seen.add(tuple(sorted((index[src], index[dst]))))
    return sorted(seen)


@st.composite
def faulty_edge_pairs(draw):
    """Valid ids and pairs with duplicate ids, unknown endpoints and self-loops
    injected at random rows, plus increasing file lines for both tables."""
    ids = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=15, unique=True))
    endpoint = st.sampled_from(ids)
    pairs = draw(st.lists(st.tuples(endpoint, endpoint), max_size=30))
    pairs = [[a, b] for a, b in pairs if a != b]
    unknown = st.integers(51, 60) | st.integers(-60, -51)
    for fault in draw(st.lists(st.sampled_from(["duplicate", "src", "dst", "both", "loop"]),
                               max_size=3)):
        if fault == "duplicate" and len(ids) > 1:
            at = draw(st.integers(1, len(ids) - 1))
            ids[at] = ids[draw(st.integers(0, at - 1))]
        elif fault != "duplicate" and pairs:
            pair = pairs[draw(st.integers(0, len(pairs) - 1))]
            if fault == "loop":
                pair[1] = pair[0]
            for end in {"src": [0], "dst": [1], "both": [0, 1]}.get(fault, []):
                pair[end] = draw(unknown)
    node_lines = np.cumsum(draw(st.lists(st.integers(1, 3), min_size=len(ids),
                                         max_size=len(ids)))) + 1
    edge_lines = np.cumsum(draw(st.lists(st.integers(1, 3), min_size=len(pairs),
                                         max_size=len(pairs)))) + 1
    return ids, [tuple(p) for p in pairs], node_lines.tolist(), edge_lines.tolist()


def reference_parse(lines, cells, convert, template):
    """Per-row oracle for ``parse_rows``: the columns as lists, or the error
    message of the first row that is too short, fails to convert or holds an
    integer outside int64."""
    columns = [[] for _ in convert]
    for line, row in zip(lines, cells):
        try:
            values = [kind(row[k]) for k, kind in enumerate(convert)]
        except (ValueError, IndexError):
            return template.format(line=line, row=row)
        if any(kind is int and not -2**63 <= v < 2**63 for kind, v in zip(convert, values)):
            return template.format(line=line, row=row)
        for column, value in zip(columns, values):
            column.append(value)
    return columns


cell_text = (st.integers(-2**64, 2**64).map(str) | st.floats(allow_nan=False).map(str)
             | st.sampled_from(["x", "", " 7 ", "1_0", "inf", "nan", "-0"]))


class TestParseRows:
    @settings(deadline=None)
    @given(st.lists(st.sampled_from([int, float]), min_size=1, max_size=3),
           st.lists(st.lists(cell_text, min_size=1, max_size=4), max_size=12))
    def test_matches_per_row_reference(self, convert, cells):
        lines = [3 * k + 2 for k in range(len(cells))]
        template = "row {line}: {row!r}"
        expected = reference_parse(lines, cells, convert, template)
        if isinstance(expected, str):
            with pytest.raises(DataError) as err:
                parse_rows((lines, cells), convert, template)
            assert str(err.value) == expected
        else:
            got = parse_rows((lines, cells), convert, template)
            assert len(got) == len(convert)
            for column, kind, values in zip(got, convert, expected):
                assert column.dtype == (np.int64 if kind is int else np.float64)
                assert np.array_equal(column, np.array(values, dtype=column.dtype),
                                      equal_nan=kind is float)


class TestCanonicalForm:
    @settings(deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=40))),
        st.data())
    def test_network_canonicalizes_pairs(self, case, data):
        n, pairs = case
        # append reversed repeats of some pairs, then shuffle
        pairs += [(b, a) for a, b in data.draw(st.lists(st.sampled_from(pairs), max_size=5)
                                               if pairs else st.just([]))]
        pairs = data.draw(st.permutations(pairs))
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        if any(not (0 <= a < n and 0 <= b < n) for a, b in pairs):
            with pytest.raises(ValueError, match="out of range"):
                Network(n=n, edges=edges)
        elif any(a == b for a, b in pairs):
            with pytest.raises(ValueError, match="self-loops"):
                Network(n=n, edges=edges)
        else:
            net = Network(n=n, edges=edges)
            expected = sorted({(min(a, b), max(a, b)) for a, b in pairs})
            assert net.edges.dtype == np.int64 and net.edges.shape == (len(expected), 2)
            assert net.edges.tolist() == [list(p) for p in expected]
            assert net.degree.dtype == np.int64
            assert np.array_equal(net.degree, np.bincount(net.edges.ravel(), minlength=n))

    @settings(deadline=None)
    @given(faulty_edge_pairs())
    def test_edge_pairs_match_per_row_reference(self, case):
        ids, pairs, node_lines, edge_lines = case
        expected = reference_edge_pairs(ids, pairs, node_lines, edge_lines)
        if isinstance(expected, str):
            with pytest.raises(DataError) as err:
                network_from_edge_pairs(ids, pairs, (node_lines, edge_lines))
            assert str(err.value) == expected
        else:
            net = network_from_edge_pairs(ids, pairs, (node_lines, edge_lines))
            assert net.n == len(ids)
            assert net.edges.tolist() == [list(p) for p in expected]


class TestNetworkSerialization:
    def test_json_round_trip(self):
        net = build_geometric_network(generate_positions(150, 12), 0.07)
        clone = Network.from_json(net.to_json())
        assert clone.n == net.n
        assert np.array_equal(clone.edges, net.edges)
        assert np.array_equal(clone.degree, net.degree)
        assert clone.radius == net.radius

    def test_numpy_integer_n_is_stored_as_int(self):
        net = Network(n=np.int64(5), edges=[])
        assert type(net.n) is int
        assert Network.from_json(net.to_json()).n == 5

    def test_geometric_network_from_numpy_integer_n_round_trips(self):
        n = np.random.default_rng(3).integers(50, 80)
        coords = generate_positions(int(n), 13).coords
        net = build_geometric_network(PositionSet(n=n, coords=coords), 0.1)
        assert type(net.n) is int
        clone = Network.from_json(net.to_json())
        assert clone.n == n and net.edge_count > 0
        assert np.array_equal(clone.edges, net.edges)

    def test_validation_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Network(n=2, edges=np.array([[1, 1]]))


class TestCalibrateRadius:
    def test_hits_target_mean_degree(self):
        target = 3.0
        radius = calibrate_radius(800, target, seed=5)
        net = build_geometric_network(generate_positions(800, 5), radius)
        retained = net.degree[net.degree > 0]
        assert retained.mean() == pytest.approx(target, abs=0.15)

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError):
            calibrate_radius(50, 49.0, seed=1)
