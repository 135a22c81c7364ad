"""Geometric random networks on the unit square, plus external network ingestion.

Positions are i.i.d. uniform on [0,1]^2 and two units are friends when their
Euclidean distance is at most the connection radius (inclusive comparison,
plain geometry with no wraparound at the square boundary). The per-node
friend counts feed the sampling frames used by every estimator downstream.

Neighbor search uses uniform grid bucketing with cell size equal to the
radius, which gives O(n) expected construction; the test suite keeps a
brute-force all-pairs oracle.
"""

from __future__ import annotations

import csv
import io
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
    coords = positions.coords
    ci, cj = _candidate_pairs(coords, radius)
    if ci.size:
        diff = coords[ci] - coords[cj]
        close = diff[:, 0] ** 2 + diff[:, 1] ** 2 <= radius * radius
        ci, cj = ci[close], cj[close]
    lo = np.minimum(ci, cj)
    hi = np.maximum(ci, cj)
    sorter = np.lexsort((hi, lo))
    edges = np.column_stack([lo[sorter], hi[sorter]])
    degree = np.bincount(edges.ravel(), minlength=positions.n) if edges.size else np.zeros(positions.n, dtype=np.int64)
    return Network(n=positions.n, edges=edges, degree=degree, radius=radius)


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


def _read_rows(source: str | Path | IO[str] | Iterable[str]) -> list[list[str]]:
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as handle:
            return [row for row in csv.reader(handle) if row]
    if isinstance(source, io.TextIOBase) or hasattr(source, "read"):
        return [row for row in csv.reader(source) if row]
    return [row for row in csv.reader(iter(source)) if row]


def network_from_edge_pairs(
    node_ids: Sequence[int],
    pairs: Iterable[tuple[int, int]],
    first_row: int = 1,
) -> Network:
    """Build an undirected, deduplicated network from external id pairs.

    Node order follows ``node_ids``; duplicate ids, unknown endpoints and
    self-loops are rejected. ``first_row`` sets the row number reported for
    the first entry (file sources pass 2 to account for the header line).
    """
    index: dict[int, int] = {}
    for pos, node_id in enumerate(node_ids):
        if node_id in index:
            raise DataError(f"nodes row {pos + first_row}: duplicate node id {node_id}")
        index[node_id] = pos
    n = len(index)
    seen: set[tuple[int, int]] = set()
    for row_no, (src, dst) in enumerate(pairs, start=first_row):
        if src not in index:
            raise DataError(f"edges row {row_no}: unknown node id {src}")
        if dst not in index:
            raise DataError(f"edges row {row_no}: unknown node id {dst}")
        if src == dst:
            raise DataError(f"edges row {row_no}: self-loop on node id {src}")
        a, b = index[src], index[dst]
        seen.add((min(a, b), max(a, b)))
    edges = np.array(sorted(seen), dtype=np.int64).reshape(-1, 2)
    degree = np.bincount(edges.ravel(), minlength=n) if edges.size else np.zeros(n, dtype=np.int64)
    return Network(n=n, edges=edges, degree=degree, radius=None)


def ingest_network(nodes_source, edges_source) -> Network:
    """Read a network from a nodes CSV (header ``id``) and an edges CSV (``src,dst``)."""
    node_rows = _read_rows(nodes_source)
    if not node_rows or [c.strip() for c in node_rows[0]][:1] != ["id"]:
        raise DataError("nodes file must start with header 'id'")
    node_ids = []
    for row_no, row in enumerate(node_rows[1:], start=2):
        try:
            node_ids.append(int(row[0]))
        except (ValueError, IndexError):
            raise DataError(f"nodes row {row_no}: expected an integer id, got {row!r}") from None

    edge_rows = _read_rows(edges_source)
    if not edge_rows or [c.strip() for c in edge_rows[0]][:2] != ["src", "dst"]:
        raise DataError("edges file must start with header 'src,dst'")
    pairs = []
    for row_no, row in enumerate(edge_rows[1:], start=2):
        try:
            pairs.append((int(row[0]), int(row[1])))
        except (ValueError, IndexError):
            raise DataError(f"edges row {row_no}: expected two integer ids, got {row!r}") from None
    return network_from_edge_pairs(node_ids, pairs, first_row=2)


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
