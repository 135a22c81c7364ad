"""Geometric random networks on the unit square, plus external network ingestion.

Positions are i.i.d. uniform on [0,1]^2 and two units are friends when their
Euclidean distance is at most the connection radius (inclusive comparison,
plain geometry with no wraparound at the square boundary). The per-node
friend counts feed the sampling frames used by every estimator downstream.

Neighbor search buckets the points into a uniform grid with cell size equal
to the radius and sorts them by cell key (a radix sort when the keys fit 16
bits). Each point's candidate partners in its own cell and in each of four
forward cells are then one contiguous range of the sorted points, read from
a table of the occupied cells' first and last sorted positions. Each forward
offset costs one binary search per occupied cell, and its candidates are
filtered by distance before they are mapped back to point indices.
Construction thus costs O(n log n) plus time linear in the candidate count;
the test suite keeps a brute-force all-pairs oracle.

:class:`Network` alone puts index pairs of any order, orientation or
multiplicity into edge-list form and derives the degrees. A geometric build
hands it distinct pairs unsorted, and the sorted edge list is made when it is
first read; degrees and treated-friend counts do not need it. External networks
come from a nodes CSV (header starting ``id``) and an edges CSV
(``src,dst``); :func:`read_rows` and :func:`parse_rows` read every input
table, the frame CSV included, skipping blank lines, and every error, such
as a duplicate id, unknown endpoint or self-loop, names its file line.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

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


@dataclass(frozen=True, init=False, eq=False)
class Network:
    """Undirected simple graph on ``n`` units.

    ``edges`` takes index pairs in any order, orientation or multiplicity;
    out-of-range endpoints and self-loops raise a ValueError. The ``edges``
    attribute holds one row (i, j) per distinct pair, i < j, sorted
    lexicographically. ``degree``, the per-unit friend count, is derived.
    ``radius`` records the connection radius when the network was built
    geometrically.

    A geometric build hands over its distinct pairs as found; they are sorted
    into ``edges`` only when ``edges`` is first read. ``degree``,
    ``edge_count`` and :func:`treated_neighbor_counts` read the stored
    pairs, whose order does not change their values.
    """

    n: int
    radius: float | None
    degree: np.ndarray
    _pairs: np.ndarray = field(repr=False)

    def __init__(self, n: int, edges, radius: float | None = None):
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError("edge endpoints out of range")
        if (pairs[:, 0] == pairs[:, 1]).any():
            raise ValueError("edges must join distinct units (no self-loops)")
        keys = _sorted_pair_keys(pairs, n)
        # a repeat equals its predecessor
        canonical = np.column_stack(np.divmod(keys[np.diff(keys, prepend=-1) > 0], n))
        self._store(n, canonical, radius)
        self.__dict__["edges"] = canonical

    @classmethod
    def _from_distinct_pairs(cls, n: int, pairs: np.ndarray, radius: float) -> "Network":
        """The network of ``pairs``, an (m, 2) int64 array of distinct in-range
        pairs ``i != j``, in any order and orientation, taken without checks."""
        network = cls.__new__(cls)
        network._store(n, pairs, radius)
        return network

    def _store(self, n: int, pairs: np.ndarray, radius: float | None) -> None:
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "degree", np.bincount(pairs.ravel(), minlength=n))
        object.__setattr__(self, "_pairs", pairs)

    @cached_property
    def edges(self) -> np.ndarray:
        return np.column_stack(np.divmod(_sorted_pair_keys(self._pairs, self.n), self.n))

    @property
    def edge_count(self) -> int:
        return int(self._pairs.shape[0])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "radius": self.radius, "edges": self.edges.tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Network":
        return cls(n=int(obj["n"]), edges=obj["edges"], radius=obj.get("radius"))

    @classmethod
    def from_json(cls, text: str) -> "Network":
        return cls.from_json_dict(json.loads(text))


def _sorted_pair_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    """The keys ``lo * n + hi`` of the (lo, hi)-ordered pairs, sorted: sorting
    the keys sorts the pairs lexicographically."""
    a, b = pairs.T
    return np.sort(np.minimum(a, b) * n + np.maximum(a, b))


@dataclass(frozen=True)
class DegreeSummary:
    """Degree-distribution summary over the F > 0 subsample."""

    retained_fraction: float
    mean_f: float | None = None
    sd_f: float | None = None
    max_f: int | None = None
    mean_t: float | None = None
    sd_t: float | None = None


def generate_positions(n: int, seed: int) -> PositionSet:
    """Draw ``n`` i.i.d. uniform points on the unit square, deterministic per seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = rng_from_seed(seed)
    return PositionSet(n=n, coords=rng.random((n, 2)))


def _close_pairs(coords: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Each unordered pair of points at distance <= ``radius``, once.

    Cell edge equals the radius, so every pair within the radius falls in the
    same cell or one of the 8 adjacent cells. With the points sorted by cell
    key, the points in the cell ``delta`` keys ahead of point p's cell form
    one range of sorted positions; p's own cell (positions after p) plus 4
    forward offsets visit each unordered pair of nearby points once. The
    ranges are looked up per occupied cell, and each offset's pairs are
    filtered by distance before they are mapped back to point indices.
    """
    n = len(coords)
    cells = np.floor(coords / radius).astype(np.int64)
    # one more key per row than there are cells, so that no offset wraps a row
    width = int(math.floor(1.0 / radius)) + 2
    keys = cells[:, 0] * width + cells[:, 1]
    # the narrowest type that holds the keys gives the same stable order, and
    # keys of 16 bits or fewer are radix sorted
    order = np.argsort(keys.astype(np.min_scalar_type(keys.max(initial=0))), kind="stable")
    sorted_keys = keys[order]
    x, y = coords[:, 0][order], coords[:, 1][order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    first = np.flatnonzero(starts)
    cell_keys = sorted_keys[first]
    # bounds[c] is the first sorted position of occupied cell c, and bounds[c + 1]
    # one past its last; cell[p] is the occupied cell of sorted position p
    bounds = np.append(first, n)
    cell = np.cumsum(starts) - 1
    p = np.arange(n)
    i_parts, j_parts = [], []
    for delta in (0, 1, width - 1, width, width + 1):
        if delta == 0:
            lo, hi = p + 1, bounds[cell + 1]
        else:
            lo = bounds[np.searchsorted(cell_keys, cell_keys + delta)][cell]
            hi = bounds[np.searchsorted(cell_keys, cell_keys + delta + 1)][cell]
        counts = hi - lo
        # p's partners, sorted positions lo..hi-1, fill the output slots
        # from cumsum(counts) - counts on
        shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        i = np.repeat(p, counts)
        j = shift + np.arange(shift.size)
        dx, dy = x[i] - x[j], y[i] - y[j]
        # a gather at the kept positions beats a boolean mask, whose ~40% hit
        # rate defeats branch prediction
        close = np.flatnonzero(dx ** 2 + dy ** 2 <= radius * radius)
        i_parts.append(order[i[close]])
        j_parts.append(order[j[close]])
    return np.concatenate(i_parts), np.concatenate(j_parts)


def build_geometric_network(positions: PositionSet, radius: float) -> Network:
    """Connect every pair at Euclidean distance <= ``radius`` (ties included)."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    ci, cj = _close_pairs(positions.coords, radius)
    return Network._from_distinct_pairs(positions.n, np.column_stack([ci, cj]), radius)


def treated_neighbor_counts(network: Network, d: np.ndarray) -> np.ndarray:
    """Per-unit count of treated friends: T_i = sum of d_j over j adjacent to i."""
    d = np.asarray(d)
    if d.shape != (network.n,):
        raise ValueError(f"treatment vector must have length {network.n}, got shape {d.shape}")
    if not ((d == 0) | (d == 1)).all():
        raise ValueError("treatment vector entries must be 0 or 1")
    # each edge (i, j) adds d_j to T_i and d_i to T_j; the sums of 0/1 weights
    # are exact in any order
    i, j = np.ascontiguousarray(network._pairs.T)
    return (np.bincount(i, weights=d[j], minlength=network.n)
            + np.bincount(j, weights=d[i], minlength=network.n)).astype(np.int64)


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


# the file line and the cells of each row of a CSV table
Rows = tuple[Sequence[int], Sequence[list[str]]]

_PARSE_ERRORS = (ValueError, IndexError, OverflowError)


def read_rows(source: str | Path | Iterable[str], header: Sequence[str], what: str) -> Rows:
    """The nonblank rows of a path, open file or iterable of lines below a header
    starting with ``header``; ``what`` names the table in errors."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, newline="", encoding="utf-8") as handle:
                return read_rows(handle, header, what)
        except FileNotFoundError:
            raise DataError(f"{what} file not found: {source}") from None
    reader = csv.reader(source)
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows or [c.strip() for c in rows[0][1]][:len(header)] != list(header):
        raise DataError(f"{what} file must start with header '{','.join(header)}'")
    lines, cells = zip(*rows)
    return lines[1:], cells[1:]


def parse_rows(rows: Rows, convert: Sequence[type], error_template: str) -> tuple[np.ndarray, ...]:
    """The leading columns of ``rows`` as arrays, one per ``int`` or ``float`` in
    ``convert``. The first row that is too short or holds a value its converter
    rejects, found by bisecting on prefixes, raises a DataError from
    ``error_template`` (fields ``line`` and ``row``)."""
    def columns(cells) -> tuple[np.ndarray, ...]:
        values = list(zip(*cells)) or [()] * len(convert)
        if len(values) < len(convert):
            raise IndexError("row too short")
        return tuple(np.fromiter(map(kind, v), kind, len(v)) for kind, v in zip(convert, values))

    lines, cells = rows
    try:
        return columns(cells)
    except _PARSE_ERRORS:
        good, bad = 0, len(cells)  # cells[:good] convert and cells[:bad] do not
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                columns(cells[:mid])
                good = mid
            except _PARSE_ERRORS:
                bad = mid
        raise DataError(error_template.format(line=lines[good], row=cells[good])) from None


def reject_rows(rows: Rows, bad: np.ndarray, error_template: str) -> None:
    """Raise a DataError from ``error_template`` (fields ``line`` and ``row``)
    for the first of ``rows`` where the boolean array ``bad`` holds."""
    if bad.any():
        first = int(np.argmax(bad))
        raise DataError(error_template.format(line=rows[0][first], row=rows[1][first]))


def sort_ids(ids: np.ndarray) -> tuple[np.ndarray, int | None]:
    """The stable ascending order of ``ids``, and the first row that repeats
    an earlier row's id (None when all are distinct)."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    # the stable sort puts every repeat of an id after its first row
    repeats = order[1:][sorted_ids[1:] == sorted_ids[:-1]]
    return order, int(repeats.min()) if repeats.size else None


def network_from_edge_pairs(
    node_ids: Sequence[int] | np.ndarray,
    pairs: Sequence[tuple[int, int]] | np.ndarray,
    lines: tuple[Sequence[int], Sequence[int]] | None = None,
) -> Network:
    """Build an undirected, deduplicated network from external id pairs.

    Node order follows ``node_ids``. The first row with a duplicate id is
    rejected, then the first pair with an unknown ``src``, an unknown ``dst``
    or a self-loop, checked in that order. ``lines`` gives the file line of
    each node id and of each pair, for error messages; without it entries
    count from 1.
    """
    ids = np.asarray(node_ids, dtype=np.int64).reshape(-1)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    node_lines, edge_lines = lines or (range(1, ids.size + 1), range(1, len(pairs) + 1))
    n = ids.size
    order, row = sort_ids(ids)
    if row is not None:
        raise DataError(f"nodes row {node_lines[row]}: duplicate node id {ids[row]}")
    sorted_ids = ids[order]
    at = np.minimum(np.searchsorted(sorted_ids, pairs), n - 1)
    known = sorted_ids[at] == pairs if n else np.zeros(pairs.shape, dtype=bool)
    bad = ~known.all(axis=1) | (pairs[:, 0] == pairs[:, 1])
    if bad.any():
        row = int(np.argmax(bad))
        (src, dst), line = pairs[row], edge_lines[row]
        if not known[row].all():
            raise DataError(f"edges row {line}: unknown node id {dst if known[row, 0] else src}")
        raise DataError(f"edges row {line}: self-loop on node id {src}")
    return Network(n=n, edges=order[at])


def ingest_edges(node_ids: np.ndarray, node_lines: Sequence[int], edges_source) -> Network:
    """The network on ``node_ids``, read from file lines ``node_lines``, whose
    friendships an edges CSV (header ``src,dst``) lists."""
    edge_rows = read_rows(edges_source, ("src", "dst"), "edges")
    pairs = np.column_stack(parse_rows(edge_rows, (int, int),
                                       "edges row {line}: expected two integer ids, got {row!r}"))
    return network_from_edge_pairs(node_ids, pairs, (node_lines, edge_rows[0]))


def ingest_network(nodes_source, edges_source) -> Network:
    """Read a network from a nodes CSV (header ``id``) and an edges CSV (``src,dst``)."""
    rows = read_rows(nodes_source, ("id",), "nodes")
    (ids,) = parse_rows(rows, (int,), "nodes row {line}: expected an integer id, got {row!r}")
    return ingest_edges(ids, rows[0], edges_source)


# calibrate_radius: the radius bracket, the position sets averaged per
# radius, the tolerance on the mean F and the most bisection steps
_CALIBRATE_LO, _CALIBRATE_HI = 0.001, 0.2
_CALIBRATE_DRAWS, _CALIBRATE_TOL, _CALIBRATE_MAX_ITER = 3, 0.01, 40


def calibrate_radius(n: int, target_mean_f: float, seed: int) -> float:
    """Bisect ``[_CALIBRATE_LO, _CALIBRATE_HI]`` for the radius whose mean F
    among F > 0 units matches a target to within ``_CALIBRATE_TOL``.

    The objective averages ``_CALIBRATE_DRAWS`` independent position sets
    per radius so the search is stable; it is deterministic for a fixed seed.
    """
    if n < 2:
        raise ValueError("need at least 2 units to calibrate")
    if target_mean_f < 1.0:
        raise ValueError("target mean F must be >= 1 (degrees are counted among F > 0 units)")
    positions = [generate_positions(n, s) for s in range(seed, seed + _CALIBRATE_DRAWS)]

    def mean_f(radius: float) -> float:
        values = []
        for pos in positions:
            net = build_geometric_network(pos, radius)
            retained = net.degree[net.degree > 0]
            values.append(retained.mean() if retained.size else 1.0)
        return float(np.mean(values))

    lo, hi = _CALIBRATE_LO, _CALIBRATE_HI
    f_lo, f_hi = mean_f(lo), mean_f(hi)
    if not f_lo <= target_mean_f <= f_hi:
        raise ValueError(
            f"target mean F {target_mean_f} outside achievable range [{f_lo:.3f}, {f_hi:.3f}]"
        )
    for _ in range(_CALIBRATE_MAX_ITER):
        mid = 0.5 * (lo + hi)
        value = mean_f(mid)
        if abs(value - target_mean_f) <= _CALIBRATE_TOL:
            return mid
        if value < target_mean_f:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
