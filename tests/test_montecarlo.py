import csv
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from netcrf import (
    MCConfig,
    ModelSpec,
    RankDeficiencyError,
    dgp_scenario,
    format_model_spec,
    load_reference_tables,
    parse_model_spec,
    replicate_table,
    run_study,
)
from netcrf import dgp, montecarlo
from netcrf.montecarlo import TARGETS, _replicate, _run_scenarios
from conftest import cell_statistics

ALL_FOUR = (ModelSpec.t_model(), ModelSpec.r_model(), ModelSpec.tr_model(), ModelSpec.crf2(2))


def small_config(**overrides):
    base = dict(
        n_units=500, scenario="i", estimators=ALL_FOUR,
        repetitions=6, master_seed=101,
    )
    base.update(overrides)
    return MCConfig(**base)


def run_replication(config, rep_index):
    """The one-scenario replication ``rep_index`` of a study: its true effects
    (direct, network, interaction), the estimates of every estimator that
    succeeded and the set of those that failed, keyed by spec string."""
    true, estimates, ok = _replicate(config, (config.params(),), rep_index)
    keys = [format_model_spec(spec) for spec in config.estimators]
    return SimpleNamespace(
        true=tuple(true[0].tolist()),
        estimates={key: tuple(values.tolist())
                   for key, values, good in zip(keys, estimates[0], ok[0]) if good},
        failures={key for key, good in zip(keys, ok[0]) if not good},
    )


class TestRunReplication:
    def test_deterministic(self):
        config = small_config()
        a = run_replication(config, 2)
        b = run_replication(config, 2)
        assert a.estimates == b.estimates
        assert a.true == b.true

    def test_replications_differ(self):
        config = small_config()
        a = run_replication(config, 0)
        b = run_replication(config, 1)
        assert a.estimates != b.estimates

    @pytest.mark.parametrize("text, scenario, targets", [
        ("t", "i", "all"), ("tr", "i", "all"), ("tr", "ii", "all"), ("tr", "iii", "all"),
        ("crf2:J=2", "i", "all"), ("crf1long", "i", "all"),
        ("crf1long", "ii", "direct"), ("crf1long", "iii", "direct"),
    ])
    def test_zero_noise_aggregates_equal_the_truth(self, text, scenario, targets):
        # without noise a correctly specified estimator is exact: each aggregate
        # it specifies equals the true effect to roundoff, both from a frame's
        # unit outcomes and from the shared draw's per-scenario cell sums
        from netcrf import (build_design, build_geometric_network, fit, generate_positions,
                            recover_effect_table, simulate_frame, true_aggregate_effects)
        from netcrf.dgp import draw_frame, scenario_cell_sums

        spec, params = parse_model_spec(text), dgp_scenario(scenario, noise_sd=0.0)
        policy = "drop" if spec.saturated else "error"
        for seed in range(4):
            network = build_geometric_network(generate_positions(2000, seed), 0.025)
            frame = simulate_frame(network, params, seed)
            draw = draw_frame(network, params.p_treat, seed)
            one = fit(build_design(frame, spec), frame.cell_sums(), on_rank_deficiency=policy)
            multi = fit(build_design(draw, spec), scenario_cell_sums(draw, (params,)),
                        on_rank_deficiency=policy)
            true = true_aggregate_effects(params, frame.f)
            for agg in (recover_effect_table(one).aggregates,
                        *recover_effect_table(multi).aggregates):
                for target in TARGETS if targets == "all" else (targets,):
                    want = getattr(true, target)
                    assert abs(getattr(agg, target) - want) <= 1e-12 * max(1.0, abs(want)), target

    def test_count_and_ratio_models_report_zero_interaction(self):
        config = small_config(scenario="iii")
        rep = run_replication(config, 1)
        assert rep.estimates["t"][2] == 0.0
        assert rep.estimates["r"][2] == 0.0

    def test_fit_failure_recorded_not_raised(self):
        # f_max=1 cannot support the realized friend counts, so the long
        # design must fail gracefully inside the replication
        config = small_config(
            estimators=(ModelSpec.crf1_long(f_max=1, t_max=1), ModelSpec.t_model()),
        )
        rep = run_replication(config, 0)
        assert "crf1long:f_max=1,t_max=1" in rep.failures
        assert "t" in rep.estimates


class TestRunStudy:
    def test_rows_cover_estimators_and_targets(self):
        report = run_study(small_config())
        assert len(report.rows) == len(ALL_FOUR) * 3
        assert report.row("t", "direct").n_ok == 6

    def test_bias_uses_mean_of_replication_trues(self):
        config = small_config(repetitions=4)
        report = run_study(config)
        reps = [run_replication(config, i) for i in range(4)]
        true_mean = np.mean([r.true[1] for r in reps])
        est_mean = np.mean([r.estimates["t"][1] for r in reps])
        row = report.row("t", "network")
        assert row.true_value == pytest.approx(true_mean, abs=1e-12)
        assert row.abs_bias == pytest.approx(abs(est_mean - true_mean), abs=1e-12)

    def test_parallel_matches_serial(self):
        serial = run_study(small_config(repetitions=5, n_jobs=1))
        parallel = run_study(small_config(repetitions=5, n_jobs=2))
        assert serial.rows == parallel.rows

    def test_all_failed_estimator_marked(self):
        config = small_config(estimators=(ModelSpec.crf1_long(f_max=1, t_max=1),))
        report = run_study(config)
        row = report.row("crf1long:f_max=1,t_max=1", "direct")
        assert row.n_ok == 0
        assert row.n_failed == 6
        assert row.abs_bias is None

    def test_report_rendering(self):
        report = run_study(small_config(repetitions=3))
        text = report.to_text_table()
        assert "estimator" in text and "t" in text
        csv_text = report.to_csv_text()
        assert csv_text.startswith("# {")
        assert "master_seed" in csv_text
        assert report.metadata["generator"].startswith("numpy.random.Philox")

    def test_csv_quotes_a_spec_holding_a_comma(self):
        spec = ModelSpec.crf2(2, t_order=2)
        report = run_study(small_config(n_units=300, estimators=(spec, ModelSpec.t_model()),
                                        repetitions=3, master_seed=1))
        lines = report.to_csv_text().splitlines()[1:]
        rows = list(csv.reader(lines))
        assert rows[0] == ["estimator", "target", "abs_bias", "sd", "true_value",
                           "mean_estimate", "n_ok", "n_failed"]
        assert all(len(row) == 8 for row in rows)
        spec_rows = [row for row in rows if row[0] == "crf2:J=2,t_order=2"]
        assert [row[1] for row in spec_rows] == ["direct", "network", "interaction"]

    def test_correctly_specified_estimators_nearly_unbiased(self):
        # scenario i: the count-based and combined designs are correct, so
        # their bias stays within MC error of zero
        config = small_config(n_units=2000, repetitions=40, scenario="i", n_jobs=2)
        report = run_study(config)
        for estimator in ("t", "tr"):
            for target in ("direct", "network", "interaction"):
                row = report.row(estimator, target)
                if row.sd:
                    assert row.abs_bias <= 3.0 * row.sd / np.sqrt(row.n_ok) + 1e-12

    def test_tr_extras_vanish_when_count_model_is_truth(self):
        # under scenario i the combined design's ratio and interaction
        # coefficients are zero in truth; the replication averages stay
        # within two MC standard errors of zero
        from netcrf import (
            build_design,
            build_geometric_network,
            generate_positions,
            simulate_frame,
        )
        from netcrf import fit as lsq_fit
        from netcrf.rng import child_seeds

        config = small_config(n_units=1000, repetitions=30, scenario="i")
        extras = {"R": [], "D:T": [], "D:R": []}
        for rep_index in range(config.repetitions):
            seed_pos, seed_frame = child_seeds(config.master_seed, rep_index, 2)
            net = build_geometric_network(generate_positions(1000, seed_pos), 0.025)
            frame = simulate_frame(net, config.params(), seed_frame)
            x = build_design(frame, ModelSpec.tr_model())
            result = lsq_fit(x, cell_statistics(x, frame.y))
            for label in extras:
                extras[label].append(result.coef(label))
        for label, values in extras.items():
            values = np.asarray(values)
            mc_se = values.std(ddof=1) / np.sqrt(len(values))
            assert abs(values.mean()) <= 2.0 * mc_se, label


class TestCellPath:
    def test_builds_no_unit_level_outcome(self, monkeypatch):
        # a replication's one frame holds the shared noise; no scenario's
        # outcome mean is gathered from its cells to the units
        def unit_level(*args, **kwargs):
            raise AssertionError("the Monte Carlo built a unit-level outcome")

        class CellMeans(np.ndarray):
            """Outcome means per cell, and every array made from them, which
            no index array (a cell per unit) may gather."""

            def __getitem__(self, index):
                if isinstance(index, np.ndarray):
                    unit_level()
                return super().__getitem__(index)

            def __array_function__(self, func, types, args, kwargs):
                result = super().__array_function__(func, types, args, kwargs)
                return result.view(CellMeans) if isinstance(result, np.ndarray) else result

        real_mean = dgp._outcome_mean
        monkeypatch.setattr(dgp, "simulate_frame", unit_level)
        monkeypatch.setattr(dgp, "_outcome_mean",
                            lambda *args: real_mean(*args).view(CellMeans))
        comparison = replicate_table("table1", 3)
        assert len(comparison.cells) == 48
        report = run_study(small_config(repetitions=3))
        assert report.row("t", "direct").n_ok == 3

    def test_value_error_in_a_fit_fails_the_run(self, monkeypatch):
        # a ValueError is a fault of the program, never a failed estimator
        def broken(*args, **kwargs):
            raise ValueError("broken cell arithmetic")

        monkeypatch.setattr(montecarlo, "lsq_fit", broken)
        with pytest.raises(ValueError, match="broken cell arithmetic"):
            run_study(small_config(repetitions=2))

    def test_rank_deficiency_counts_as_failed(self, monkeypatch):
        real_fit = montecarlo.lsq_fit

        def deficient_t(x, y, **kwargs):
            if x.labels == ("1", "D", "T", "F"):
                raise RankDeficiencyError(("T",))
            return real_fit(x, y, **kwargs)

        monkeypatch.setattr(montecarlo, "lsq_fit", deficient_t)
        report = run_study(small_config(repetitions=3))
        for target in TARGETS:
            assert (report.row("t", target).n_ok, report.row("t", target).n_failed) == (0, 3)
            assert (report.row("tr", target).n_ok, report.row("tr", target).n_failed) == (3, 0)

    @pytest.mark.parametrize("params, message", [
        # f >= 2 overflows the mean of the outcome
        (dgp_scenario("i", beta_f=1e308), r"y\[\d+, 0\] is not finite \(inf\)"),
        # every outcome is finite, but a cell of two units sums beyond the range
        (dgp_scenario("i", beta_f=0.0, beta_d=0.0, beta0=1e308),
         "a cell sum of y is not finite"),
    ])
    def test_non_finite_outcome_fails_the_run_before_any_fit(self, monkeypatch, params, message):
        fits = []
        monkeypatch.setattr(montecarlo, "lsq_fit", lambda *args, **kwargs: fits.append(args))
        with pytest.raises(ValueError, match=message):
            run_study(small_config(scenario=params, repetitions=2))
        assert not fits


class TestConfigValidation:
    def test_bad_config_values(self):
        with pytest.raises(ValueError):
            small_config(n_units=1)
        with pytest.raises(ValueError):
            small_config(repetitions=0)
        with pytest.raises(ValueError):
            small_config(n_jobs=0)

    def test_crf1short_rejected(self):
        # the study targets average over every F; crf1short sees one F only
        with pytest.raises(ValueError, match="crf1short"):
            small_config(estimators=(ModelSpec.t_model(), ModelSpec.crf1_short(4)))


class TestReplicateTable:
    def test_reference_tables_shape(self):
        tables = load_reference_tables()
        assert set(tables) == {"table1", "table2"}
        t1 = tables["table1"]
        assert len(t1["estimators"]) == 4 and len(t1["scenarios"]) == 4
        t2 = tables["table2"]
        assert t2["estimators"] == ["tr", "crf2:J=2"]
        assert t2["scenarios"] == ["iii", "iv"]
        # 48 bias cells in the large grid, 12 in the small one
        assert sum(len(cells) for est in t1["cells"].values() for cells in est.values()) == 48

    def test_smoke_grid_structure(self):
        comparison = replicate_table("table1", repetitions=3, master_seed=7, n_units=400)
        assert len(comparison.cells) == 48
        assert comparison.metadata["tolerance_scale"] == pytest.approx(np.sqrt(1000 / 3))
        assert comparison.metadata["n_units_overridden"] is True
        cell = comparison.cell("t", "i", "network")
        assert cell.bias_ref == 0.0
        assert cell.bias_tol >= 0.03 * np.sqrt(1000 / 3)
        text = comparison.to_text_report()
        assert "bias cells failing" in text
        csv_text = comparison.to_csv_text()
        assert len(csv_text.splitlines()) == 50  # metadata + header + 48 rows

    def test_interaction_cells_skip_sd_comparison(self):
        comparison = replicate_table("table2", repetitions=3, master_seed=7, n_units=400)
        assert len(comparison.cells) == 12
        for cell in comparison.cells:
            if cell.sd_ref is None:
                assert cell.sd_pass is None

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            replicate_table("table9")


class TestSharedReplications:
    def test_table_csv_identical_across_worker_counts(self):
        serial = replicate_table("table1", repetitions=4, master_seed=17, n_units=300, n_jobs=1)
        parallel = replicate_table("table1", repetitions=4, master_seed=17, n_units=300, n_jobs=2)
        assert serial.to_csv_text() == parallel.to_csv_text()

    def test_single_scenario_study_equals_grid_rows(self):
        tables = load_reference_tables()
        grid = replicate_table("table1", repetitions=4, master_seed=17, n_units=300)
        for scenario in ("ii", "iv"):
            report = run_study(MCConfig(
                n_units=300, scenario=scenario,
                estimators=tuple(parse_model_spec(e) for e in tables["table1"]["estimators"]),
                repetitions=4, master_seed=17, radius=tables["table1"]["radius"],
            ))
            for row in report.rows:
                cell = grid.cell(row.estimator, scenario, row.target)
                assert (cell.bias, cell.sd, cell.true_value) == (row.abs_bias, row.sd,
                                                                  row.true_value)

    def test_scenarios_with_different_treatments_do_not_share_designs(self):
        # p_treat changes the treatment draw, so scenarios with different
        # p_treat share no frame and cannot form one grid
        scenarios = (dgp_scenario("iii"), dgp_scenario("iii", p_treat=0.3))
        with pytest.raises(ValueError, match="p_treat"):
            _run_scenarios(small_config(repetitions=3), scenarios)
        with pytest.raises(ValueError, match="p_treat"):
            _run_scenarios(small_config(repetitions=3), ())

    def test_grid_replication_equals_one_scenario_pipeline(self):
        # the public one-scenario functions, composed per scenario on
        # unit-level outcomes, give what one shared grid replication gives
        # from its cell sums n_c mu_c + sigma Z_c: the same sums added in
        # another order, so equal within 1e-12 (relative, absolute below 1)
        from netcrf import (
            build_design,
            build_geometric_network,
            fit,
            generate_positions,
            recover_effect_table,
            simulate_frame,
            true_aggregate_effects,
        )
        from netcrf.rng import child_seeds

        estimators = ALL_FOUR + (ModelSpec.crf1_long(f_max=1, t_max=1),)
        config = small_config(estimators=estimators)
        grids = [(dgp_scenario("i"), dgp_scenario("iv"), dgp_scenario("ii", noise_sd=0.5)),
                 (dgp_scenario("iii", p_treat=0.3), dgp_scenario("i", p_treat=0.3))]
        for scenarios, rep_index in itertools.product(grids, (0, 3)):
            true, estimates, ok = _replicate(config, scenarios, rep_index)
            seed_positions, seed_frame = child_seeds(config.master_seed, rep_index, 2)
            network = build_geometric_network(
                generate_positions(config.n_units, seed_positions), config.radius)
            for s, params in enumerate(scenarios):
                frame = simulate_frame(network, params, seed_frame)
                effects = true_aggregate_effects(params, frame.f)
                assert tuple(true[s]) == (effects.direct, effects.network, effects.interaction)
                assert not ok[s, -1]  # crf1long:f_max=1,t_max=1
                for e, spec in enumerate(ALL_FOUR):
                    x = build_design(frame, spec)
                    one = fit(x, cell_statistics(x, frame.y))
                    agg = recover_effect_table(one).aggregates
                    assert ok[s, e]
                    want = np.array([agg.direct, agg.network, agg.interaction])
                    assert (np.abs(estimates[s, e] - want)
                            <= 1e-12 * np.maximum(1.0, np.abs(want))).all()


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestReportReductions:
    # fails in the replications where some unit has more than 3 friends
    SOMETIMES_FAILS = ModelSpec.crf1_long(f_max=3, t_max=3)

    @pytest.mark.parametrize("reps", [2, 9, 130])
    def test_study_rows_equal_per_row_numpy_reductions(self, reps):
        # numpy sums pairwise in blocks of 8 and 128 entries; every statistic
        # must be what np.mean and np.std(ddof=1) give for the 1-D array of
        # the replications where the estimator succeeded
        config = small_config(n_units=300, scenario="iv",
                              estimators=ALL_FOUR + (self.SOMETIMES_FAILS,), repetitions=reps)
        report = run_study(config)
        per_rep = [run_replication(config, i) for i in range(reps)]
        failing = format_model_spec(self.SOMETIMES_FAILS)
        n_failed = sum(failing in r.failures for r in per_rep)
        assert 0 < n_failed < reps
        for spec in config.estimators:
            key = format_model_spec(spec)
            ok = [r for r in per_rep if key in r.estimates]
            for pos, target in enumerate(TARGETS):
                row = report.row(key, target)
                assert (row.n_ok, row.n_failed) == (len(ok), reps - len(ok))
                values = np.array([r.estimates[key][pos] for r in ok])
                true = np.mean(np.array([r.true[pos] for r in ok]))
                assert same_bits(row.true_value, true)
                assert same_bits(row.mean_estimate, np.mean(values))
                assert same_bits(row.abs_bias, abs(np.mean(values) - true))
                if len(ok) > 1:
                    assert same_bits(row.sd, np.std(values, ddof=1))
                else:
                    assert row.sd is None
        # the failing estimator's true value comes from its own replications
        all_true = np.mean(np.array([r.true[1] for r in per_rep]))
        assert same_bits(report.row("t", "network").true_value, all_true)
        assert not same_bits(report.row(failing, "network").true_value, all_true)

    @pytest.mark.parametrize("reps", [2, 9, 130])
    def test_grid_cells_equal_per_row_numpy_reductions(self, reps):
        table = load_reference_tables()["table1"]
        comparison = replicate_table("table1", repetitions=reps, master_seed=23, n_units=300)
        config = MCConfig(n_units=300, scenario="i",
                          estimators=tuple(parse_model_spec(e) for e in table["estimators"]),
                          repetitions=reps, master_seed=23, radius=table["radius"])
        scenarios = tuple(dgp_scenario(s) for s in table["scenarios"])
        true, estimates, ok = (np.array(part) for part in
                               zip(*(_replicate(config, scenarios, i) for i in range(reps))))
        for s, scenario in enumerate(table["scenarios"]):
            for e, key in enumerate(table["estimators"]):
                kept = ok[:, s, e]  # crf2 fails in some replications of this size
                for pos, target in enumerate(TARGETS):
                    cell = comparison.cell(key, scenario, target)
                    values = estimates[kept, s, e, pos]
                    mean_true = np.mean(true[kept, s, pos])
                    assert same_bits(cell.true_value, mean_true)
                    assert same_bits(cell.bias, abs(np.mean(values) - mean_true))
                    if kept.sum() > 1:
                        assert same_bits(cell.sd, np.std(values, ddof=1))
                    else:
                        assert cell.sd is None
