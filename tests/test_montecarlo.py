import csv
import itertools

import numpy as np
import pytest

from netcrf import (
    MCConfig,
    ModelSpec,
    dgp_scenario,
    format_model_spec,
    load_reference_tables,
    parse_model_spec,
    replicate_table,
    run_study,
)
from netcrf.montecarlo import _replicate, _run_scenarios

ALL_FOUR = (ModelSpec.t_model(), ModelSpec.r_model(), ModelSpec.tr_model(), ModelSpec.crf2(2))


def small_config(**overrides):
    base = dict(
        n_units=500, scenario="i", estimators=ALL_FOUR,
        repetitions=6, master_seed=101,
    )
    base.update(overrides)
    return MCConfig(**base)


def run_replication(config, rep_index):
    """The one-scenario replication ``rep_index`` of a study."""
    return _replicate(config, (config.params(),), rep_index)[0]


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

    def test_zero_noise_t_model_recovers_network_exactly(self):
        config = small_config(
            scenario=dgp_scenario("i", noise_sd=0.0),
            estimators=(ModelSpec.t_model(),),
            n_units=800,
        )
        rep = run_replication(config, 0)
        assert rep.estimates["t"][1] == pytest.approx(0.2, abs=1e-8)
        assert rep.estimates["t"][0] == pytest.approx(2.0, abs=1e-8)

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
        true_mean = np.mean([r.true.network for r in reps])
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
            result = lsq_fit(build_design(frame, ModelSpec.tr_model()), frame.y)
            for label in extras:
                extras[label].append(result.coef(label))
        for label, values in extras.items():
            values = np.asarray(values)
            mc_se = values.std(ddof=1) / np.sqrt(len(values))
            assert abs(values.mean()) <= 2.0 * mc_se, label


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

    def test_grid_replication_equals_one_scenario_pipeline(self):
        # the public one-scenario functions, composed per scenario, give
        # bit for bit what one shared grid replication gives
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
            shared = _replicate(config, scenarios, rep_index)
            seed_positions, seed_frame = child_seeds(config.master_seed, rep_index, 2)
            network = build_geometric_network(
                generate_positions(config.n_units, seed_positions), config.radius)
            for params, result in zip(scenarios, shared):
                frame = simulate_frame(network, params, seed_frame)
                assert result.true == true_aggregate_effects(params, frame.f)
                assert "crf1long:f_max=1,t_max=1" in result.failures
                for spec in ALL_FOUR:
                    one = fit(build_design(frame, spec), frame.y)
                    agg = recover_effect_table(one, spec, frame.f, t_grid=()).aggregates
                    assert result.estimates[format_model_spec(spec)] == (
                        agg.direct, agg.network, agg.interaction)
