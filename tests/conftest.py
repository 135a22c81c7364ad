import math

import numpy as np
import pytest
from hypothesis import strategies as st

from netcrf import ModelSpec, SampleFrame, build_geometric_network, generate_positions
from netcrf.lsq import CellSums
from netcrf.rng import child_seeds, rng_from_seed


def make_frame(y, d, t, f, n_total=None):
    y = np.asarray(y, dtype=float)
    n = len(y)
    return SampleFrame(
        y=y, d=np.asarray(d), t=np.asarray(t), f=np.asarray(f),
        ids=np.arange(n), n_total=n_total if n_total is not None else n,
    )


def cell_statistics(x, y):
    """The :class:`CellSums` of a unit-level outcome over the cells of design
    ``x``: per cell, the sum and the sum of squares about the cell mean of
    ``y``, shape ``(n,)``, or of each column of ``y``, shape ``(n, s)``."""
    y = np.asarray(y, dtype=float)
    sums, within = [], []
    for column in y.reshape(y.shape[0], -1).T:
        total = np.bincount(x.cell_of_unit, weights=column, minlength=x.n_cells)
        deviations = column - (total / x.cell_counts)[x.cell_of_unit]
        sums.append(total)
        within.append(np.bincount(x.cell_of_unit, weights=deviations * deviations,
                                  minlength=x.n_cells))
    if y.ndim == 1:
        return CellSums(sums[0], within[0])
    return CellSums(np.column_stack(sums), np.column_stack(within))


def unit_fitted(result):
    """A one-outcome fit's fitted value of every unit, from the unit-level
    design matrix and the coefficients of the columns it kept."""
    kept = ~np.isnan(result.coefficients)
    return result.design.values[:, kept] @ result.coefficients[kept]


def potential_outcome(params, f, d, t, u=0.0):
    """The outcome equation of the ``netcrf.dgp`` docstring at friend count
    ``f``, own treatment ``d``, ``t`` treated friends (a number or an array)
    and noise ``u``."""
    log_f = math.log(f)
    return (params.beta0 + params.beta_f * f + (params.beta_d + params.beta_f2 * log_f) * d
            + (params.beta_tau + params.beta_r / f + params.beta_f2 * log_f) * t
            + (params.beta_dtau + params.beta_dr / f + params.beta_f2 * log_f) * d * t + u)


def unit_noise(network, params, seed):
    """Each unit's noise ``noise_sd * z``, with ``z`` redrawn from the seed's
    documented standard-normal stream, the second of ``child_seeds(seed, 0, 2)``."""
    _, seed_u = child_seeds(seed, 0, 2)
    return params.noise_sd * rng_from_seed(seed_u).standard_normal(network.n)


def potential_outcome_grid(network, params, seed):
    """Per unit with f >= 1, in unit order, its (2, f + 1) potential outcomes:
    ``grid[i][d, t]`` is the outcome at own treatment d and t treated friends,
    all with the unit's one noise draw (:func:`unit_noise`)."""
    return [np.vstack([potential_outcome(params, f, d, np.arange(f + 1), u) for d in (0, 1)])
            for f, u in zip(network.degree.tolist(), unit_noise(network, params, seed).tolist())
            if f > 0]


def cell_means(frame):
    """Mean outcome and unit count per occupied (d, t, f) cell: {(d, t, f): (mean, count)}."""
    means = {}
    for key in set(zip(frame.d.tolist(), frame.t.tolist(), frame.f.tolist())):
        mask = (frame.d == key[0]) & (frame.t == key[1]) & (frame.f == key[2])
        means[key] = (float(frame.y[mask].mean()), int(mask.sum()))
    return means


def identified_effects(means, f, t):
    """Effect fields pinned by occupied (d, t, f) cells.

    A saturated-fit field is its cell-mean contrast only when every cell
    entering the contrast is occupied. Otherwise a kept column may still
    carry it, as another contrast: with (0, 0, f) empty, for example,
    ``D:F=f`` is the level of (1, 0, f), not the direct effect.
    """
    names = []
    if (0, 0, f) in means:
        names.append("baseline")
        if (1, 0, f) in means:
            names.append("delta0")
        if (0, t, f) in means:
            names.append("tau0")
            if (1, 0, f) in means and (1, t, f) in means:
                names.append("tau_pm")
    return names


@st.composite
def sparse_saturated_fits(draw):
    """A frame of 2-60 units over friend counts up to 8, so most possible
    (d, t, f) cells are empty, with a crf1long spec (with or without
    ``f_max``/``t_max`` beyond the data) or a crf1short spec."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 60))
    f = rng.integers(1, draw(st.integers(1, 8)) + 1, size=n)
    t = rng.integers(0, f + 1)
    d = rng.integers(0, 2, size=n)
    frame = make_frame(rng.standard_normal(n) + f - d * t, d, t, f)
    kind = draw(st.sampled_from(["crf1long", "bounded", "crf1short"]))
    if kind == "crf1short":
        f_common = int(f[0])
        return frame.restrict_to_f(f_common), ModelSpec.crf1_short(f_common)
    if kind == "bounded":
        return frame, ModelSpec.crf1_long(int(f.max()) + draw(st.integers(0, 2)),
                                          max(1, int(t.max())) + draw(st.integers(0, 2)))
    return frame, ModelSpec.crf1_long()


@pytest.fixture(scope="session")
def network_2000():
    return build_geometric_network(generate_positions(2000, 424242), 0.025)


@pytest.fixture(scope="session")
def network_1000():
    return build_geometric_network(generate_positions(1000, 424242), 0.025)
