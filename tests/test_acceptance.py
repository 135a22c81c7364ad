"""End-to-end acceptance criteria.

Each test prints one ``ACCEPTANCE <n>: PASS|FAIL`` line and then asserts, so
a full run documents every criterion's outcome. The replication-study
criteria (5 and 6) run the complete 1000-repetition grids and take a few
minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from netcrf import (
    ModelSpec,
    build_design,
    build_geometric_network,
    degree_stats,
    dgp_scenario,
    fit,
    generate_positions,
    recover_effect_table,
    replicate_table,
    simulate_frame,
    telescope_level_from_changes,
    true_aggregate_effects,
)
from netcrf.design import DesignMatrix
from conftest import cell_means, make_frame, potential_outcome_grid, unit_fitted

pytestmark = pytest.mark.acceptance

MASTER_SEED = 20250810
N_JOBS = 2


def report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    return ok


@pytest.fixture(scope="module")
def table1_comparison():
    return replicate_table("table1", repetitions=1000, master_seed=MASTER_SEED, n_jobs=N_JOBS)


@pytest.fixture(scope="module")
def table2_comparison():
    return replicate_table("table2", repetitions=1000, master_seed=MASTER_SEED, n_jobs=N_JOBS)


def test_criterion_1_decomposition_identity():
    # per-unit identity of realized outcomes against the potential-outcome
    # grid, whose noise is redrawn from the seed's documented stream, on 100
    # frames (25 per scenario) at N=500, tolerance 1e-10, under 30 seconds
    start = time.perf_counter()
    worst = 0.0
    for k in range(100):
        scenario = ("i", "ii", "iii", "iv")[k % 4]
        net = build_geometric_network(generate_positions(500, 1000 + k), 0.025)
        frame = simulate_frame(net, dgp_scenario(scenario), 2000 + k)
        grid = potential_outcome_grid(net, dgp_scenario(scenario), 2000 + k)
        for i in range(frame.n_selected):
            g = grid[i]
            d_i = int(frame.d[i])
            t_i = int(frame.t[i])
            value = g[0, 0] + (g[1, 0] - g[0, 0]) * d_i
            for t in range(1, int(frame.f[i]) + 1):
                if t == t_i:
                    interaction = g[1, t] - g[1, 0] - g[0, t] + g[0, 0]
                    value += g[0, t] - g[0, 0] + interaction * d_i
            worst = max(worst, abs(value - frame.y[i]))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30.0
    assert report(1, "per-unit decomposition identity",
                  ok, f"max error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_zero_noise_exact_recovery():
    # each correctly specified estimator recovers its coefficients to 1e-8 on
    # one N=2000 zero-noise draw. The ratio-model leg additionally zeroes the
    # friend-count slope: its design has no F column, so exact recovery is
    # only defined when that slope is absent from the outcome equation.
    net = build_geometric_network(generate_positions(2000, MASTER_SEED), 0.025)
    checks = [
        ("i", {}, ModelSpec.t_model(),
         {"1": 0.0, "D": 2.0, "T": 0.2, "F": -2.0}),
        ("ii", {"beta_f": 0.0}, ModelSpec.r_model(),
         {"1": 0.0, "D": 2.0, "R": 2.0}),
        ("iii", {}, ModelSpec.tr_model(),
         {"1": 0.0, "F": -2.0, "D": 2.0, "T": 0.2, "R": 2.0, "D:T": 0.2, "D:R": 2.0}),
    ]
    worst = 0.0
    for scenario, overrides, spec, expected in checks:
        params = dgp_scenario(scenario, noise_sd=0.0, **overrides)
        frame = simulate_frame(net, params, MASTER_SEED + 1)
        result = fit(build_design(frame, spec), frame.y)
        for label, value in expected.items():
            worst = max(worst, abs(result.coef(label) - value))
    ok = worst < 1e-8
    assert report(2, "zero-noise exact coefficient recovery", ok, f"max error {worst:.2e}")


def test_criterion_3_saturated_oracle():
    net = build_geometric_network(generate_positions(2000, MASTER_SEED + 2), 0.025)
    frame = simulate_frame(net, dgp_scenario("iii"), MASTER_SEED + 3)
    keep = frame.f <= 6
    frame = make_frame(frame.y[keep], frame.d[keep], frame.t[keep], frame.f[keep])

    long_spec = ModelSpec.crf1_long(f_max=6, t_max=6)
    long_fit = fit(build_design(frame, long_spec), frame.y, on_rank_deficiency="drop")
    means = cell_means(frame)
    fitted = unit_fitted(long_fit)
    worst_fit = max(
        abs(fitted[i] - means[int(frame.d[i]), int(frame.t[i]), int(frame.f[i])][0])
        for i in range(frame.n_selected)
    )

    # compare only effects identified by occupied cells: when a companion
    # cell is empty, a field present in both fits is another contrast
    from conftest import identified_effects

    long_table = recover_effect_table(long_fit, long_spec, frame.f)
    worst_eq = 0.0
    compared = 0
    for f_value in np.unique(frame.f).tolist():
        subframe = frame.restrict_to_f(f_value)
        short_spec = ModelSpec.crf1_short(f_value)
        short_fit = fit(build_design(subframe, short_spec), subframe.y, on_rank_deficiency="drop")
        short_table = recover_effect_table(short_fit, short_spec, subframe.f)
        for t in range(1, f_value + 1):
            long_cell = long_table.cell(f_value, t)
            short_cell = short_table.cell(f_value, t)
            for name in identified_effects(means, f_value, t):
                a = getattr(long_cell, name)
                b = getattr(short_cell, name)
                if a is None or b is None:
                    worst_eq = float("inf")
                    continue
                worst_eq = max(worst_eq, abs(a - b))
                compared += 1
    ok = worst_fit < 1e-8 and worst_eq < 1e-8 and compared > 50
    assert report(3, "saturated fit equals cell means; long/short agree",
                  ok, f"fit err {worst_fit:.2e}, long/short err {worst_eq:.2e} "
                      f"over {compared} identified effects")


def test_criterion_4_telescoping_identity():
    # change effects cumulated over s = 1..t equal the level effect at t on
    # the same sample means, per friend count up to 6
    net = build_geometric_network(generate_positions(1500, MASTER_SEED + 4), 0.025)
    frame = simulate_frame(net, dgp_scenario("iv"), MASTER_SEED + 5)
    grid = potential_outcome_grid(net, dgp_scenario("iv"), MASTER_SEED + 5)
    worst = 0.0
    checked = 0
    for f_value in range(1, 7):
        units = [i for i in range(frame.n_selected) if frame.f[i] == f_value]
        if not units:
            continue
        stacked = np.stack([grid[i] for i in units])
        for t in range(1, f_value + 1):
            changes = [
                float(np.mean(stacked[:, 1, s] - stacked[:, 1, s - 1]
                              - stacked[:, 0, s] + stacked[:, 0, s - 1]))
                for s in range(1, t + 1)
            ]
            level = float(np.mean(stacked[:, 1, t] - stacked[:, 1, 0]
                                  - stacked[:, 0, t] + stacked[:, 0, 0]))
            worst = max(worst, abs(telescope_level_from_changes(changes) - level))
            checked += 1
    ok = worst < 1e-10 and checked > 0
    assert report(4, "telescoped change effects equal level effects",
                  ok, f"max error {worst:.2e} over {checked} cells")


def test_criterion_5_table1_replication(table1_comparison):
    comparison = table1_comparison
    bias_fails = [c for c in comparison.cells if not c.bias_pass]
    sd_fails = [c for c in comparison.cells if c.sd_pass is False]
    for c in bias_fails:
        print(f"  bias mismatch {c.estimator}/{c.scenario}/{c.target}: "
              f"ours {c.bias:.3f} vs ref {c.bias_ref:.3f} (tol {c.bias_tol:.3f})")
    for c in sd_fails:
        print(f"  SD mismatch {c.estimator}/{c.scenario}/{c.target}: "
              f"ours {c.sd:.3f} vs ref {c.sd_ref:.3f}")
    ok = not bias_fails and not sd_fails
    assert report(5, "full 48-cell bias/SD replication of the N=2000 study", ok,
                  f"{len(bias_fails)} bias and {len(sd_fails)} SD cells out of tolerance")


def test_criterion_6_table2_replication(table2_comparison):
    comparison = table2_comparison
    crf_biases = [comparison.cell("crf2:J=2", "iv", target).bias
                  for target in ("direct", "network", "interaction")]
    crf_ok = all(b is not None and b <= 0.02 for b in crf_biases)
    tr_cell = comparison.cell("tr", "iv", "direct")
    tr_ok = tr_cell.bias_pass  # reference 0.07 at tolerance max(0.03, 3 MCSE)
    ok = crf_ok and tr_ok
    assert report(6, "N=5000 study: power-design nearly unbiased, combined-design direct bias",
                  ok,
                  "crf2 biases " + "/".join(f"{b:.3f}" for b in crf_biases)
                  + f", tr direct bias {tr_cell.bias:.3f} vs ref 0.07")


def test_criterion_7_true_effects():
    exact = true_aggregate_effects(dgp_scenario("i"), [1, 3, 4, 9])
    exact_ok = (
        abs(exact.direct - 2.0) < 1e-15
        and abs(exact.network - 0.2) < 1e-15
        and abs(exact.interaction) < 1e-15
    )

    results = {}
    for n, expected in ((2000, (2.52, 1.35, 1.35)), (5000, (2.88, 1.32, 1.32))):
        net = build_geometric_network(generate_positions(n, MASTER_SEED + 6), 0.025)
        frame = simulate_frame(net, dgp_scenario("iv"), MASTER_SEED + 7)
        effects = true_aggregate_effects(dgp_scenario("iv"), frame.f)
        results[n] = (effects.direct, effects.network, effects.interaction, expected)
    within = all(
        abs(direct - exp[0]) <= 0.05 and abs(network - exp[1]) <= 0.05
        and abs(inter - exp[2]) <= 0.05
        for direct, network, inter, exp in results.values()
    )
    detail = "; ".join(
        f"N={n}: ({d:.3f},{w:.3f},{i:.3f}) vs {exp}"
        for n, (d, w, i, exp) in results.items()
    )
    ok = exact_ok and within
    assert report(7, "true aggregate effects", ok, detail)


def test_criterion_8_degree_distribution():
    # measured against the stated windows at radius 0.025; averaging over
    # five networks removes seed-level noise from the check
    def moments(n):
        means, sds, maxes = [], [], []
        for k in range(5):
            net = build_geometric_network(generate_positions(n, MASTER_SEED + 10 + k), 0.025)
            stats = degree_stats(net)
            means.append(stats.mean_f)
            sds.append(stats.sd_f)
            maxes.append(stats.max_f)
        return float(np.mean(means)), float(np.mean(sds)), float(np.mean(maxes))

    mean_2000, sd_2000, max_2000 = moments(2000)
    mean_1000, _, _ = moments(1000)
    ok = (
        4.0 <= mean_2000 <= 4.4
        and 1.7 <= sd_2000 <= 2.1
        and 8.0 <= max_2000 <= 16.0
        and 2.3 <= mean_1000 <= 2.7
    )
    assert report(
        8, "degree distribution at radius 0.025", ok,
        f"N=2000 mean F {mean_2000:.3f} (need [4.0,4.4]), SD {sd_2000:.3f} (need [1.7,2.1]), "
        f"max {max_2000:.1f}; N=1000 mean F {mean_1000:.3f} (need [2.3,2.7])",
    )


def test_criterion_9_lsq_property_suite():
    rng = np.random.default_rng(MASTER_SEED)
    worst_oracle = worst_orth = worst_affine = 0.0
    for trial in range(1000):
        n, k = 60, 5
        x_mat = rng.standard_normal((n, k))
        x_mat[:, 0] = 1.0
        if np.linalg.cond(x_mat) > 1e6:
            continue
        beta = rng.standard_normal(k)
        y = x_mat @ beta + 0.2 * rng.standard_normal(n)
        design = DesignMatrix(values=x_mat, labels=tuple(f"c{i}" for i in range(k)))
        result = fit(design, y)

        oracle = np.linalg.solve(x_mat.T @ x_mat, x_mat.T @ y)
        worst_oracle = max(worst_oracle, float(np.max(np.abs(result.coefficients - oracle))))

        residuals = y - x_mat @ result.coefficients
        res_norm = max(float(np.linalg.norm(residuals)), 1.0)
        for col in range(k):
            column = x_mat[:, col]
            bound = 1e-8 * np.linalg.norm(column) * res_norm
            worst_orth = max(worst_orth, float(abs(column @ residuals)) / bound)

        if trial % 50 == 0:
            a = 2.0 + rng.random()
            c = rng.standard_normal(k)
            shifted = fit(design, a * y + x_mat @ c)
            worst_affine = max(worst_affine, float(np.max(np.abs(
                shifted.coefficients - (a * result.coefficients + c)))))
    ok = worst_oracle < 1e-7 and worst_orth < 1.0 and worst_affine < 1e-9
    assert report(9, "least-squares property suite (1000 systems)", ok,
                  f"oracle {worst_oracle:.2e}, orthogonality ratio {worst_orth:.2f}, "
                  f"affine {worst_affine:.2e}")
