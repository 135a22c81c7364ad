"""Seeded inputs for the benchmark, made without calling netcrf.

The fit workload reads an external network the way a researcher would hand
one to ``netcrf fit --nodes --edges``: a geometric N=2000 network with
scenario-iv outcomes, written as ``nodes.csv`` (``id,y,d``) and
``edges.csv`` (``src,dst``). The generator uses numpy and scipy only, so the
files for a seed are byte-identical whatever version of netcrf is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

N_UNITS = 2000
RADIUS = 0.025

# scenario iv of the paper (netcrf.dgp.dgp_scenario("iv")), restated here so
# that the inputs do not depend on the code under test
SCENARIO_IV = dict(beta0=0.0, beta_f=-2.0, beta_d=2.0, beta_f2=0.4, beta_tau=0.2,
                   beta_r=2.0, beta_dtau=0.2, beta_dr=2.0, noise_sd=1.0, p_treat=0.5)


def op_seed(workload_seed: int, stream: int, index: int) -> int:
    """A 63-bit seed for op ``index`` of ``stream``; distinct ops get distinct seeds."""
    ss = np.random.SeedSequence(entropy=int(workload_seed), spawn_key=(int(stream), int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


@dataclass(frozen=True)
class NetworkData:
    """One generated dataset, in node-row order, as the files hold it."""

    ids: np.ndarray
    y: np.ndarray
    d: np.ndarray
    edges: np.ndarray  # (m, 2) node-row indices, one row per undirected pair


def friend_counts(edges: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F, T) per unit: friends, and treated friends."""
    n = d.size
    a, b = edges[:, 0], edges[:, 1]
    f = np.bincount(edges.ravel(), minlength=n)
    t = np.bincount(a, weights=d[b], minlength=n) + np.bincount(b, weights=d[a], minlength=n)
    return f, t.astype(np.int64)


def make_network_data(seed: int, n: int = N_UNITS, radius: float = RADIUS) -> NetworkData:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    coords = rng.random((n, 2))
    pairs = cKDTree(coords).query_pairs(radius, output_type="ndarray").astype(np.int64)
    p = SCENARIO_IV
    d = (rng.random(n) < p["p_treat"]).astype(np.int64)
    noise = rng.normal(0.0, p["noise_sd"], size=n)
    f, t = friend_counts(pairs, d)
    safe_f = np.maximum(f, 1)
    log_f = np.log(safe_f)
    y = (p["beta0"] + p["beta_f"] * f + (p["beta_d"] + p["beta_f2"] * log_f) * d
         + (p["beta_tau"] + p["beta_r"] / safe_f + p["beta_f2"] * log_f) * t
         + (p["beta_dtau"] + p["beta_dr"] / safe_f + p["beta_f2"] * log_f) * d * t
         + noise)
    # external ids: distinct, unordered, not row numbers
    ids = rng.choice(10 * n, size=n, replace=False).astype(np.int64) + 1
    # external edge lists come in no particular order or orientation
    flip = rng.random(pairs.shape[0]) < 0.5
    edges = np.where(flip[:, None], pairs[:, ::-1], pairs)[rng.permutation(pairs.shape[0])]
    return NetworkData(ids=ids, y=y, d=d, edges=edges)


def write_network_csvs(data: NetworkData, directory: Path) -> tuple[Path, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    nodes = directory / "nodes.csv"
    edges = directory / "edges.csv"
    nodes.write_text(
        "id,y,d\n" + "".join(f"{i},{format(float(v), '.17g')},{k}\n"
                             for i, v, k in zip(data.ids.tolist(), data.y.tolist(), data.d.tolist())),
        encoding="utf-8",
    )
    ids = data.ids
    edges.write_text(
        "src,dst\n" + "".join(f"{a},{b}\n" for a, b in zip(ids[data.edges[:, 0]].tolist(),
                                                             ids[data.edges[:, 1]].tolist())),
        encoding="utf-8",
    )
    return nodes, edges
