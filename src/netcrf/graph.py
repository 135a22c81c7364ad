"""Geometric random networks on the unit square, plus external network ingestion.

Positions are i.i.d. uniform on [0,1]^2 and two units are friends when their
Euclidean distance is at most the connection radius (inclusive comparison,
plain geometry with no wraparound at the square boundary). The per-node
friend counts feed the sampling frames used by every estimator downstream.

Neighbor search uses uniform grid bucketing with cell size equal to the
radius, which gives O(n) expected construction; the test suite keeps a
brute-force all-pairs oracle.

External networks are parsed here only, from a nodes CSV (header starting
``id``) and an edges CSV (``src,dst``) with blank lines skipped; every error,
such as a duplicate id, unknown endpoint or self-loop, names its file line.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import DataError
from .rng import rng_from_seed

DEFAULT_RADIUS = 0.025


@dataclass(frozen=True)
class PositionSet:
    """``n`` points on the unit square, one (x, y) row per unit."""

    n: int
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.shape != (self.n, 2):
            raise ValueError(f"coords must have shape ({self.n}, 2), got {coords.shape}")
        if coords.size and (coords.min() < 0.0 or coords.max() > 1.0):
            raise ValueError("coordinates must lie in [0, 1]")
        object.__setattr__(self, "coords", coords)


@dataclass(frozen=True)
class Network:
    """Undirected simple graph on ``n`` units.

    ``edges`` holds one row (i, j) per unordered pair with i < j, sorted
    lexicographically; ``degree`` is the per-unit friend count. ``radius``
    records the connection radius when the network was built geometrically.
    """

    n: int
    edges: np.ndarray
    degree: np.ndarray
    radius: float | None = None

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        degree = np.asarray(self.degree, dtype=np.int64)
        if degree.shape != (self.n,):
            raise ValueError(f"degree must have length {self.n}")
        if edges.size:
            if edges.min() < 0 or edges.max() >= self.n:
                raise ValueError("edge endpoints out of range")
            if (edges[:, 0] >= edges[:, 1]).any():
                raise ValueError("edges must satisfy i < j (no self-loops)")
        expected = np.bincount(edges.ravel(), minlength=self.n) if edges.size else np.zeros(self.n, dtype=np.int64)
        if not np.array_equal(expected, degree):
            raise ValueError("degree vector inconsistent with edge list")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "degree", degree)

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    def neighbors_of(self, i: int) -> np.ndarray:
        """Sorted neighbor indices of unit ``i``."""
        if not 0 <= i < self.n:
            raise ValueError(f"unit index {i} out of range")
        mask0 = self.edges[:, 0] == i
        mask1 = self.edges[:, 1] == i
        return np.sort(np.concatenate([self.edges[mask1, 0], self.edges[mask0, 1]]))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "radius": self.radius,
            "edges": [[int(a), int(b)] for a, b in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Network":
        edges = np.asarray(obj["edges"], dtype=np.int64).reshape(-1, 2)
        n = int(obj["n"])
        degree = np.bincount(edges.ravel(), minlength=n) if edges.size else np.zeros(n, dtype=np.int64)
        return cls(n=n, edges=edges, degree=degree, radius=obj.get("radius"))

    @classmethod
    def from_json(cls, text: str) -> "Network":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class DegreeSummary:
    """Degree-distribution summary over the F > 0 subsample."""

    retained_fraction: float
    mean_f: float | None = None
    sd_f: float | None = None
    max_f: int | None = None
    mean_t: float | None = None
    sd_t: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "retained_fraction": self.retained_fraction,
            "mean_f": self.mean_f,
            "sd_f": self.sd_f,
            "max_f": self.max_f,
            "mean_t": self.mean_t,
            "sd_t": self.sd_t,
        }


def generate_positions(n: int, seed: int) -> PositionSet:
    """Draw ``n`` i.i.d. uniform points on the unit square, deterministic per seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = rng_from_seed(seed)
    return PositionSet(n=n, coords=rng.random((n, 2)))


def _candidate_pairs(coords: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidate index pairs from same-cell and adjacent-cell bucketing.

    Cell edge equals the radius, so every pair within the radius falls in the
    same cell or one of the 8 adjacent cells; scanning the cell itself plus
    4 forward offsets visits each unordered cell pair exactly once.
    """
    n = coords.shape[0]
    cells = np.floor(coords / radius).astype(np.int64)
    width = int(math.floor(1.0 / radius)) + 2
    keys = cells[:, 0] * width + cells[:, 1]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    group_keys, group_starts = np.unique(sorted_keys, return_index=True)
    group_sizes = np.diff(np.append(group_starts, n))

    i_parts: list[np.ndarray] = []
    j_parts: list[np.ndarray] = []

    for size in np.unique(group_sizes):
        if size < 2:
            continue
        starts = group_starts[group_sizes == size]
        members = order[starts[:, None] + np.arange(size)]
        a, b = np.triu_indices(int(size), k=1)
        i_parts.append(members[:, a].ravel())
        j_parts.append(members[:, b].ravel())

    for delta in (width, 1, width + 1, width - 1):
        target = group_keys + delta
        pos = np.searchsorted(group_keys, target)
        pos_clipped = np.minimum(pos, len(group_keys) - 1)
        matched = group_keys[pos_clipped] == target
        if not matched.any():
            continue
        a_starts = group_starts[matched]
        a_sizes = group_sizes[matched]
        b_starts = group_starts[pos_clipped[matched]]
        b_sizes = group_sizes[pos_clipped[matched]]
        counts = a_sizes * b_sizes
        total = int(counts.sum())
        pair_group = np.repeat(np.arange(len(counts)), counts)
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        within = np.arange(total) - offsets[pair_group]
        b_rep = b_sizes[pair_group]
        i_parts.append(order[a_starts[pair_group] + within // b_rep])
        j_parts.append(order[b_starts[pair_group] + within % b_rep])

    if not i_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(i_parts), np.concatenate(j_parts)


def build_geometric_network(positions: PositionSet, radius: float) -> Network:
    """Connect every pair at Euclidean distance <= ``radius`` (ties included)."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    n = positions.n
    ci, cj = _candidate_pairs(positions.coords, radius)
    if ci.size:
        x, y = np.ascontiguousarray(positions.coords.T)
        dx, dy = x[ci] - x[cj], y[ci] - y[cj]
        close = dx ** 2 + dy ** 2 <= radius * radius
        ci, cj = ci[close], cj[close]
    # each pair is a candidate once, so sorting the keys lo * n + hi sorts the edges
    lo, hi = np.divmod(np.sort(np.minimum(ci, cj) * n + np.maximum(ci, cj)), n)
    edges = np.column_stack([lo, hi])
    degree = np.bincount(edges.ravel(), minlength=n) if edges.size else np.zeros(n, dtype=np.int64)
    return Network(n=n, edges=edges, degree=degree, radius=radius)


def treated_neighbor_counts(network: Network, d: np.ndarray) -> np.ndarray:
    """Per-unit count of treated friends: T_i = sum of d_j over j adjacent to i."""
    d = np.asarray(d)
    if d.shape != (network.n,):
        raise ValueError(f"treatment vector must have length {network.n}, got shape {d.shape}")
    if d.size and not np.isin(d, (0, 1)).all():
        raise ValueError("treatment vector entries must be 0 or 1")
    # each edge (i, j) adds d_j to T_i and d_i to T_j
    ends = network.edges.ravel()
    partners = network.edges[:, ::-1].ravel()
    return np.bincount(ends, weights=d[partners], minlength=network.n).astype(np.int64)


def degree_stats(network: Network, treatment: np.ndarray | None = None) -> DegreeSummary:
    """Summarize the degree distribution over the F > 0 subsample.

    ``mean_t``/``sd_t`` are filled only when a treatment vector is supplied;
    they summarize treated-friend counts among the retained units.
    """
    retained = network.degree > 0
    frac = float(retained.mean()) if network.n else 0.0
    if not retained.any():
        return DegreeSummary(retained_fraction=frac)
    f = network.degree[retained].astype(float)
    mean_f = float(f.mean())
    sd_f = float(f.std(ddof=1)) if f.size > 1 else None
    max_f = int(f.max())
    mean_t = sd_t = None
    if treatment is not None:
        t = treated_neighbor_counts(network, treatment)[retained].astype(float)
        mean_t = float(t.mean())
        sd_t = float(t.std(ddof=1)) if t.size > 1 else None
    return DegreeSummary(
        retained_fraction=frac, mean_f=mean_f, sd_f=sd_f, max_f=max_f,
        mean_t=mean_t, sd_t=sd_t,
    )


def _read_rows(
    source: str | Path | IO[str], header: Sequence[str], what: str,
) -> list[tuple[int, list[str]]]:
    """(file line, cells) of every nonblank row below a header starting with ``header``."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, newline="", encoding="utf-8") as handle:
                return _read_rows(handle, header, what)
        except FileNotFoundError:
            raise DataError(f"{what} file not found: {source}") from None
    reader = csv.reader(source)
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows or [c.strip() for c in rows[0][1]][:len(header)] != list(header):
        raise DataError(f"{what} file must start with header '{','.join(header)}'")
    return rows[1:]


def network_from_edge_pairs(
    node_ids: Sequence[int],
    pairs: Iterable[tuple[int, int]],
    lines: tuple[Sequence[int], Sequence[int]] | None = None,
) -> Network:
    """Build an undirected, deduplicated network from external id pairs.

    Node order follows ``node_ids``; duplicate ids, unknown endpoints and
    self-loops are rejected. ``lines`` gives the file line of each node id
    and of each pair, for error messages; without it entries count from 1.
    """
    pairs = list(pairs)
    node_lines, edge_lines = lines or (range(1, len(node_ids) + 1), range(1, len(pairs) + 1))
    index: dict[int, int] = {}
    for line, node_id in zip(node_lines, node_ids, strict=True):
        if node_id in index:
            raise DataError(f"nodes row {line}: duplicate node id {node_id}")
        index[node_id] = len(index)
    n = len(index)
    seen: set[tuple[int, int]] = set()
    for line, (src, dst) in zip(edge_lines, pairs, strict=True):
        if src not in index:
            raise DataError(f"edges row {line}: unknown node id {src}")
        if dst not in index:
            raise DataError(f"edges row {line}: unknown node id {dst}")
        if src == dst:
            raise DataError(f"edges row {line}: self-loop on node id {src}")
        a, b = index[src], index[dst]
        seen.add((min(a, b), max(a, b)))
    edges = np.array(sorted(seen), dtype=np.int64).reshape(-1, 2)
    return Network(n=n, edges=edges, degree=np.bincount(edges.ravel(), minlength=n))


def ingest_node_rows(
    nodes_source, edges_source, node_header: Sequence[str] = ("id",),
) -> tuple[Network, list[tuple[int, list[str]]]]:
    """``ingest_network`` for a nodes header starting with ``node_header`` (the
    first column being the id), also returning each node row with its file line."""
    node_rows = _read_rows(nodes_source, node_header, "nodes")
    node_ids = []
    for line, row in node_rows:
        try:
            node_ids.append(int(row[0]))
        except (ValueError, IndexError):
            raise DataError(f"nodes row {line}: expected an integer id, got {row!r}") from None
    edge_rows = _read_rows(edges_source, ("src", "dst"), "edges")
    pairs = []
    for line, row in edge_rows:
        try:
            pairs.append((int(row[0]), int(row[1])))
        except (ValueError, IndexError):
            raise DataError(f"edges row {line}: expected two integer ids, got {row!r}") from None
    lines = ([line for line, _ in node_rows], [line for line, _ in edge_rows])
    return network_from_edge_pairs(node_ids, pairs, lines), node_rows


def ingest_network(nodes_source, edges_source) -> Network:
    """Read a network from a nodes CSV (header ``id``) and an edges CSV (``src,dst``)."""
    return ingest_node_rows(nodes_source, edges_source)[0]


def calibrate_radius(
    n: int,
    target_mean_f: float,
    seed: int,
    lo: float = 0.001,
    hi: float = 0.2,
    draws: int = 3,
    tol: float = 0.01,
    max_iter: int = 40,
) -> float:
    """Bisect for the radius whose mean F among F > 0 units matches a target.

    The objective averages ``draws`` independent position sets per radius so
    the search is stable; it is deterministic for a fixed seed.
    """
    if n < 2:
        raise ValueError("need at least 2 units to calibrate")
    if target_mean_f < 1.0:
        raise ValueError("target mean F must be >= 1 (degrees are counted among F > 0 units)")
    positions = [generate_positions(n, s) for s in range(seed, seed + draws)]

    def mean_f(radius: float) -> float:
        values = []
        for pos in positions:
            net = build_geometric_network(pos, radius)
            retained = net.degree[net.degree > 0]
            values.append(retained.mean() if retained.size else 1.0)
        return float(np.mean(values))

    f_lo, f_hi = mean_f(lo), mean_f(hi)
    if not f_lo <= target_mean_f <= f_hi:
        raise ValueError(
            f"target mean F {target_mean_f} outside achievable range [{f_lo:.3f}, {f_hi:.3f}]"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        value = mean_f(mid)
        if abs(value - target_mean_f) <= tol:
            return mid
        if value < target_mean_f:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
