import io
import math

import numpy as np
import pytest

from netcrf import (
    DataError,
    Network,
    PositionSet,
    build_geometric_network,
    calibrate_radius,
    degree_stats,
    generate_positions,
    ingest_network,
)
from netcrf.graph import treated_neighbor_counts


def brute_force_edges(coords, radius):
    """Independent all-pairs oracle for the grid-bucketed neighbor search."""
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
        for i in range(net.n):
            for j in net.neighbors_of(i):
                assert i in net.neighbors_of(int(j))

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


class TestDegreeStats:
    def test_empty_network(self):
        net = Network(n=3, edges=np.empty((0, 2), dtype=int), degree=np.zeros(3, dtype=int))
        stats = degree_stats(net)
        assert stats.retained_fraction == 0.0
        assert stats.mean_f is None

    def test_treatment_moments_small_example(self):
        # path 0-1-2: degrees (1,2,1); d=(1,0,1) gives t=(0,2,0)
        edges = np.array([[0, 1], [1, 2]])
        net = Network(n=3, edges=edges, degree=np.array([1, 2, 1]))
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
        net = Network(n=3, edges=np.empty((0, 2), dtype=int), degree=np.zeros(3, dtype=int))
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


class TestNetworkSerialization:
    def test_json_round_trip(self):
        net = build_geometric_network(generate_positions(150, 12), 0.07)
        clone = Network.from_json(net.to_json())
        assert clone.n == net.n
        assert np.array_equal(clone.edges, net.edges)
        assert np.array_equal(clone.degree, net.degree)
        assert clone.radius == net.radius

    def test_validation_rejects_inconsistent_degree(self):
        with pytest.raises(ValueError):
            Network(n=2, edges=np.array([[0, 1]]), degree=np.array([1, 0]))

    def test_validation_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Network(n=2, edges=np.array([[1, 1]]), degree=np.array([0, 2]))


class TestCalibrateRadius:
    def test_hits_target_mean_degree(self):
        target = 3.0
        radius = calibrate_radius(800, target, seed=5)
        net = build_geometric_network(generate_positions(800, 5), radius)
        retained = net.degree[net.degree > 0]
        assert retained.mean() == pytest.approx(target, abs=0.15)

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError):
            calibrate_radius(50, 49.0, seed=1, hi=0.01)
