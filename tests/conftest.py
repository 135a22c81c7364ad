import math

import numpy as np
import pytest

from netcrf import SampleFrame, build_geometric_network, generate_positions
from netcrf.rng import child_seeds, rng_from_seed


def make_frame(y, d, t, f, n_total=None):
    y = np.asarray(y, dtype=float)
    n = len(y)
    return SampleFrame(
        y=y, d=np.asarray(d), t=np.asarray(t), f=np.asarray(f),
        ids=np.arange(n), n_total=n_total if n_total is not None else n,
    )


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

    A saturated-fit coefficient is a well-defined cell-mean contrast only
    when every cell entering the contrast is occupied; otherwise exactly
    collinear dummy twins exist and which twin survives pivoting (and hence
    the attribution of the combined contrast) is arbitrary.
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


@pytest.fixture(scope="session")
def network_2000():
    return build_geometric_network(generate_positions(2000, 424242), 0.025)


@pytest.fixture(scope="session")
def network_1000():
    return build_geometric_network(generate_positions(1000, 424242), 0.025)
