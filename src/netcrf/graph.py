"""Geometric random networks on the unit square, plus external network ingestion.

Positions are i.i.d. uniform on [0,1]^2 and two units are friends when their
Euclidean distance is at most the connection radius (inclusive comparison,
plain geometry with no wraparound at the square boundary). The per-node
friend counts feed the sampling frames used by every estimator downstream.

Neighbor search sorts the points into vertical strips as wide as the radius,
and within a strip into bins of one height, through one integer key (radix
sorted when it fits 16 bits). A table of each bin's first sorted position
gives each point's candidate partners as two contiguous ranges of the sorted
points: those after it in its own strip, up to the bin one radius above it,
and those in the next strip's bins within one radius of its height. The
candidates are expanded and filtered by distance a block of sorted points at
a time, so that every temporary stays small, and the kept pairs are mapped
back to int32 point indices. Construction thus costs a sort plus time linear
in the candidate count and the number of bins; the test suite checks it
against a brute-force all-pairs oracle.

:class:`Network` alone puts index pairs of any order, orientation or
multiplicity into edge-list form and derives the degrees. A geometric build
hands it distinct pairs unsorted, and the sorted edge list is made when it is
first read; degrees and treated-friend counts do not need it. External networks
come from a nodes CSV (header starting ``id``) and an edges CSV
(``src,dst``). :func:`read_table` reads every input table, the frame CSV
included, in two stages. numpy's C reader (``np.loadtxt``) parses the body
of a table that the csv module would split into the same rows: ASCII text
with no quote, lone carriage return, NUL or 0x1c-0x1f separator, whose row
count matches. Otherwise, or when that parse fails or warns,
:func:`read_rows` and :func:`parse_rows` read the table row by row,
skipping blank lines. The rows, with their file lines, are read only for
an error, so every error, such as a malformed row, a duplicate id, an
unknown endpoint or a self-loop, names the same file line whichever stage
parsed the table.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TextIO

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

    The distinct pairs are stored as two contiguous endpoint arrays. A
    geometric build hands them over as found; they are sorted into ``edges``
    only when ``edges`` is first read. ``degree``, ``edge_count`` and
    :func:`treated_neighbor_counts` read the stored endpoints, whose order
    does not change their values.
    """

    n: int
    radius: float | None
    degree: np.ndarray
    _ends: tuple[np.ndarray, np.ndarray] = field(repr=False)

    def __init__(self, n: int, edges, radius: float | None = None):
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError("edge endpoints out of range")
        if (pairs[:, 0] == pairs[:, 1]).any():
            raise ValueError("edges must join distinct units (no self-loops)")
        keys = _sorted_pair_keys(pairs[:, 0], pairs[:, 1], n)
        # a repeat equals its predecessor
        ends = np.divmod(keys[np.diff(keys, prepend=-1) > 0], n)
        self._store(n, ends, radius)
        self.__dict__["edges"] = np.column_stack(ends)

    @classmethod
    def _from_distinct_pairs(cls, n: int, ends: tuple[np.ndarray, np.ndarray],
                             radius: float) -> "Network":
        """The network of the distinct in-range pairs ``(ends[0][k], ends[1][k])``,
        ``i != j``, in any order and orientation, taken without checks."""
        network = cls.__new__(cls)
        network._store(n, ends, radius)
        return network

    def _store(self, n: int, ends: tuple[np.ndarray, np.ndarray], radius: float | None) -> None:
        i, j = ends
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "degree", np.bincount(i, minlength=n) + np.bincount(j, minlength=n))
        object.__setattr__(self, "_ends", (i, j))

    @cached_property
    def edges(self) -> np.ndarray:
        return np.column_stack(np.divmod(_sorted_pair_keys(*self._ends, self.n), self.n))

    @property
    def edge_count(self) -> int:
        return int(self._ends[0].shape[0])

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


def _sorted_pair_keys(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The keys ``lo * n + hi`` of the (lo, hi)-ordered pairs ``(a[k], b[k])``,
    sorted: sorting the keys sorts the pairs lexicographically."""
    keys = np.minimum(a, b).astype(np.int64)
    keys *= n
    keys += np.maximum(a, b)
    keys.sort()
    return keys


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


# the sorted points whose candidate pairs are expanded and filtered together:
# at N=5000 and radius 0.025 a block's ~10,000 candidates keep every
# temporary near 80 KB, in cache and below glibc's mmap threshold (2,048
# points per block brought back ~500 page faults per two-replication op)
_BLOCK = 1024
# bins per radius in a strip, at most, and bins per point in the whole table,
# which bounds the table for small radii (4, 8 or 16 per radius and 2, 4 or 8
# per point built N=2000 and N=5000 networks equally fast)
_BINS_PER_RADIUS, _BINS_PER_POINT = 4, 2


def _close_pairs(coords: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Each unordered pair of points at distance <= ``radius``, once, as two
    int32 arrays of point indices (int64 from 2**31 points on).

    The points fall into vertical strips of width ``radius`` (column
    ``floor(x / radius)``), and each strip into bins of height ``1 / m``:
    ``radius / 4``, or taller where that would make more than about two bins
    per point (``_BINS_PER_RADIUS``, ``_BINS_PER_POINT``). The points are
    sorted by (column, bin) through one integer key, so that every bin is one
    contiguous range of sorted positions, looked up in a table of each bin's
    first position. A pair within the radius lies in one strip or in two
    adjacent ones, and its ``y`` differ by at most the radius. So point p's
    candidate partners are two contiguous ranges of the sorted points: in its
    own strip, the points after p up to the end of the bin that holds
    ``y_p + pad``; in the next strip, the points of the bins from the one that
    holds ``y_p - pad`` to the one that holds ``y_p + pad``. ``pad`` exceeds
    the radius by more than the rounding of ``y_p +- pad``, so no range drops
    a pair, and each pair is a candidate once. The candidates, about
    ``3 radius^2 + 1.5 radius / m`` of area per point, are expanded and
    filtered by distance ``_BLOCK`` sorted points at a time; the kept pairs are
    mapped back to point indices.
    """
    n = len(coords)
    pad = radius * (1 + 1e-9) + 1e-12
    columns = math.floor(1.0 / radius) + 1
    m = max(1, min(math.floor(_BINS_PER_RADIUS / radius), _BINS_PER_POINT * n // columns))
    rows = m + 1  # y = 1 falls in bin m
    column = np.floor(coords[:, 0] / radius).astype(np.intp)
    keys = np.floor(coords[:, 1] * m).astype(np.intp)
    keys += column * rows
    # the narrowest type that holds the keys gives the same order, and keys of
    # 16 bits or fewer are radix sorted
    order = np.argsort(keys.astype(np.min_scalar_type(columns * rows)), kind="stable")
    # first[c], the first sorted position of bin c, is n past the last strip
    first = np.full(columns * rows + rows + 1, n, dtype=np.intp)
    first[0] = 0
    np.cumsum(np.bincount(keys, minlength=columns * rows), out=first[1:columns * rows + 1])
    start = column[order] * rows  # the first bin of each sorted point's strip
    x, y = coords[:, 0][order], coords[:, 1][order]
    # int32 endpoints, where they hold every index, halve the pair lists
    index = order.astype(np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    # the bins that y + pad and y - pad fall in, clipped to the strip
    top = np.minimum(np.floor((y + pad) * m), m).astype(np.intp)
    top += start
    bottom = np.maximum(np.floor((y - pad) * m), 0).astype(np.intp)
    bottom += start
    # row p: sorted point p's range in its own strip, then in the next strip,
    # each as its first sorted position and its length
    lo = np.empty((n, 2), dtype=np.intp)
    lo[:, 0] = np.arange(1, n + 1)
    lo[:, 1] = first[bottom + rows]
    counts = np.column_stack([first[top + 1], first[top + (rows + 1)]])
    counts -= lo
    lo, counts = lo.ravel(), counts.ravel()
    ends = np.cumsum(counts)
    # range k fills the candidate slots ends[k] - counts[k] .. ends[k] - 1 with
    # lo[k] onwards: slot s holds sorted position s + shift[k]
    shift = lo - ends
    shift += counts
    per_point = counts[0::2] + counts[1::2]
    i_parts, j_parts = [], []
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        j = np.repeat(shift[2 * a:2 * b], counts[2 * a:2 * b])
        slot = int(ends[2 * a - 1]) if a else 0
        j += np.arange(slot, slot + j.size)
        i = np.repeat(np.arange(a, b), per_point[a:b])
        dx = x[i]
        dx -= x[j]
        dx *= dx
        dy = y[i]
        dy -= y[j]
        dy *= dy
        dx += dy
        # a gather at the kept positions beats a boolean mask, whose ~47% hit
        # rate defeats branch prediction
        close = np.flatnonzero(dx <= radius * radius)
        i_parts.append(index[i[close]])
        j_parts.append(index[j[close]])
    if not i_parts:
        return np.empty(0, dtype=index.dtype), np.empty(0, dtype=index.dtype)
    return np.concatenate(i_parts), np.concatenate(j_parts)


def build_geometric_network(positions: PositionSet, radius: float) -> Network:
    """Connect every pair at Euclidean distance <= ``radius`` (ties included)."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return Network._from_distinct_pairs(positions.n, _close_pairs(positions.coords, radius),
                                        radius)


def treated_neighbor_counts(network: Network, d: np.ndarray) -> np.ndarray:
    """Per-unit count of treated friends: T_i = sum of d_j over j adjacent to i."""
    d = np.asarray(d)
    if d.shape != (network.n,):
        raise ValueError(f"treatment vector must have length {network.n}, got shape {d.shape}")
    if not ((d == 0) | (d == 1)).all():
        raise ValueError("treatment vector entries must be 0 or 1")
    # each edge (i, j) adds d_j to T_i and d_i to T_j; the sums of 0/1 weights
    # are exact in any order
    weights = d.astype(float)
    i, j = network._ends
    return (np.bincount(i, weights=weights[j], minlength=network.n)
            + np.bincount(j, weights=weights[i], minlength=network.n)).astype(np.int64)


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

_NUMPY_DTYPES = {int: np.int64, float: np.float64}

# characters that keep a table from numpy's C reader: a quote (the csv module
# joins a quoted field, newlines included), a carriage return outside CRLF
# (csv ends a row there, numpy does not), NUL (csv before Python 3.11 rejects
# it) and the separators 0x1c-0x1f (numpy strips them from a number as
# whitespace, int() and float() do not)
_ROW_READER_CHARACTERS = ('"', "\r", "\x00", "\x1c", "\x1d", "\x1e", "\x1f")


def read_text(source: str | Path | TextIO, what: str) -> str:
    """The text of a path or open text file. A path that cannot be read, or
    is not UTF-8 text, raises a DataError naming the file (and the line of
    the first byte that does not decode); ``what`` names the file."""
    if not isinstance(source, (str, Path)):
        return source.read()
    try:
        data = Path(source).read_bytes()
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {source}") from None
    except OSError as exc:
        raise DataError(f"{what} file {source} cannot be read: {exc.strerror}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # a line ends at LF, CR or CRLF, as the csv module reads the file
        line = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise DataError(f"{what} file {source} line {line}: byte 0x{data[exc.start]:02x} "
                        f"is not UTF-8 ({exc.reason})") from None


def _is_header(cells: Sequence[str], header: Sequence[str]) -> bool:
    return [c.strip() for c in cells][:len(header)] == list(header)


def read_rows(lines: Iterable[str], header: Sequence[str], what: str) -> Rows:
    """The nonblank rows the csv module reads from ``lines`` below a header
    starting with ``header``; ``what`` names the table in errors."""
    reader = csv.reader(lines)
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows or not _is_header(rows[0][1], header):
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


def _numpy_columns(text: str, header: Sequence[str],
                   convert: Sequence[type]) -> tuple[np.ndarray, ...] | None:
    """The leading columns of the table in ``text`` as numpy's C reader parses
    them, or None where its rows might not be those the csv module reads, or
    where it fails. numpy gets ASCII text only: it reads some other whitespace
    differently from int() and float(), and crashes on some characters."""
    if not text.isascii():
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if any(c in text for c in _ROW_READER_CHARACTERS):
        return None
    head, _, body = text.lstrip("\n").partition("\n")
    if not _is_header(head.split(","), header) or not body.strip("\n"):
        return None
    dtype = [(f"c{k}", _NUMPY_DTYPES[kind]) for k, kind in enumerate(convert)]
    try:
        # numpy releases from 1.23 until a deprecation expired cast an integer
        # field that parses only as a float (1.0, 1.7, 1e3, 2**63) with just a
        # DeprecationWarning, where the row reader rejects the row. Raised
        # here, any warning sends the table to the row reader
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(io.StringIO(body), dtype=dtype, delimiter=",", comments=None,
                               usecols=range(len(convert)), ndmin=1)
    except (ValueError, Warning):
        return None
    # the csv module reads each nonblank line as a row. numpy skips blank lines
    # and makes at most one row of any other, so the counts agree when numpy's
    # equals the number of lines; otherwise the nonblank lines are counted
    if len(table) != body.count("\n") + (not body.endswith("\n")):
        lines = body.split("\n")
        if len(table) != len(lines) - lines.count(""):
            return None
    return tuple(np.ascontiguousarray(table[name]) for name in table.dtype.names)


class _Deferred(Sequence):
    """Field ``index`` (0: file lines, 1: cells) of the rows that ``read``
    returns, read on first use."""

    def __init__(self, read: Callable[[], Rows], index: int):
        self._read, self._index = read, index

    def __getitem__(self, k):
        return self._read()[self._index][k]

    def __len__(self) -> int:
        return len(self._read()[self._index])


def read_table(text: str, header: Sequence[str], what: str, convert: Sequence[type],
               error_template: str) -> tuple[tuple[np.ndarray, ...], Rows]:
    """The leading columns of the CSV table in ``text``, below a header starting
    with ``header``, as arrays (one per ``int`` or ``float`` in ``convert``),
    and the table's rows; ``what`` names the table in errors.

    numpy's C reader parses the body where the csv module would read the same
    rows. Otherwise, or where it fails or warns, :func:`read_rows` and
    :func:`parse_rows` read ``text`` and raise a DataError from
    ``error_template`` for the first bad row. After a numpy parse the rows
    are read only when a check indexes them to name a row, so every error
    names the same file line either way.
    """
    @functools.cache
    def rows() -> Rows:
        return read_rows(io.StringIO(text, newline=""), header, what)

    columns = _numpy_columns(text, header, convert)
    if columns is None:
        return parse_rows(rows(), convert, error_template), rows()
    return columns, (_Deferred(rows, 0), _Deferred(rows, 1))


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
    # numpy's binary search keeps its lower bound while the keys ascend, so
    # the endpoints are looked up in ascending order (3x faster at 2,000
    # nodes and 3,900 edges than in file order)
    flat = pairs.ravel()
    by_value = np.argsort(flat)
    at = np.empty_like(by_value)
    at[by_value] = np.searchsorted(sorted_ids, flat[by_value])
    at = np.minimum(at.reshape(pairs.shape), n - 1)
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
    pairs, edge_rows = read_table(read_text(edges_source, "edges"), ("src", "dst"), "edges",
                                  (int, int), "edges row {line}: expected two integer ids, got {row!r}")
    return network_from_edge_pairs(node_ids, np.column_stack(pairs), (node_lines, edge_rows[0]))


def ingest_network(nodes_source, edges_source) -> Network:
    """Read a network from a nodes CSV (header ``id``) and an edges CSV (``src,dst``)."""
    (ids,), rows = read_table(read_text(nodes_source, "nodes"), ("id",), "nodes", (int,),
                              "nodes row {line}: expected an integer id, got {row!r}")
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
