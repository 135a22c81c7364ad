import ast
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcrf import DataError, SampleFrame
from netcrf.cli import main, read_frame_csv, write_frame_csv
from netcrf.graph import read_table
from conftest import cell_means, identified_effects


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_writes_frame_and_prints_summary(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n-units", "1000", "--scenario", "i",
            "--seed", "5", "--out", str(tmp_path),
        )
        assert code == 0
        frame_path = tmp_path / "frame.csv"
        assert frame_path.exists()
        summary = json.loads(out)
        assert summary["n_total"] == 1000
        assert summary["degree_summary"]["mean_f"] is not None
        frame, metadata = read_frame_csv(frame_path)
        assert frame.n_selected == summary["n_selected"]
        assert np.all(frame.f >= 1)
        assert metadata["seed"] == 5

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args = ["simulate", "--n-units", "500", "--scenario", "iv", "--seed", "9"]
        run_cli(capsys, *args, "--out", str(tmp_path / "a"))
        run_cli(capsys, *args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a/frame.csv").read_bytes() == (tmp_path / "b/frame.csv").read_bytes()

    def test_frame_csv_lines_end_in_lf_only(self, tmp_path, capsys):
        run_cli(capsys, "simulate", "--n-units", "200", "--out", str(tmp_path))
        data = (tmp_path / "frame.csv").read_bytes()
        assert b"\r" not in data
        assert data.count(b"\n") == len(read_frame_csv(tmp_path / "frame.csv")[0].ids) + 2

    def test_round_trip_preserves_frame(self, tmp_path, capsys):
        run_cli(capsys, "simulate", "--n-units", "800", "--scenario", "iii",
                "--seed", "3", "--out", str(tmp_path))
        frame, _ = read_frame_csv(tmp_path / "frame.csv")

        from netcrf import build_geometric_network, dgp_scenario, generate_positions, simulate_frame

        net = build_geometric_network(generate_positions(800, 3), 0.025)
        expected = simulate_frame(net, dgp_scenario("iii"), 3)
        assert np.array_equal(frame.ids, expected.ids)
        assert np.array_equal(frame.y, expected.y)
        assert np.array_equal(frame.d, expected.d)

    def test_network_json_written_on_request(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--n-units", "300", "--scenario", "i",
                             "--seed", "2", "--out", str(tmp_path), "--write-network")
        assert code == 0
        payload = json.loads((tmp_path / "network.json").read_text())
        assert payload["n"] == 300
        assert payload["metadata"]["seed"] == 2

    def test_param_overrides(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n-units", "400", "--scenario", "i", "--seed", "4",
            "--out", str(tmp_path), "--param", "noise_sd=0",
        )
        assert code == 0
        frame, metadata = read_frame_csv(tmp_path / "frame.csv")
        assert metadata["params"]["noise_sd"] == 0.0

    def test_unknown_param_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--out", str(tmp_path), "--param", "beta_zz=1",
        )
        assert code == 2
        assert "beta_zz" in err

    @pytest.mark.parametrize("source, message", [
        (["--param", "noise_sd=nan"], "noise_sd must be finite, got nan"),
        (["--param", "beta_d=inf"], "beta_d must be finite, got inf"),
        ({"params": {"beta_tau": 1e400}}, "beta_tau must be finite, got inf"),
    ])
    def test_non_finite_param_is_named(self, tmp_path, capsys, source, message):
        # a parameter, not an outcome, is at fault
        argv = ["simulate", "--n-units", "300", "--scenario", "i", "--out", str(tmp_path)]
        if isinstance(source, dict):
            config = tmp_path / "run.json"
            config.write_text(json.dumps(source).replace("Infinity", "1e400"))
            source = ["--config", str(config)]
        code, out, err = run_cli(capsys, *argv, *source)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "frame.csv").exists()


class TestConfigFile:
    def test_config_supplies_options(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n_units": 300, "scenario": "i", "seed": 11,
                                      "out": str(tmp_path)}))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 0
        assert json.loads(out)["n_total"] == 300

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n_units": 300, "scenario": "i", "seed": 11,
                                      "out": str(tmp_path)}))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config),
                               "--n-units", "200")
        assert code == 0
        assert json.loads(out)["n_total"] == 200

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n_units": 300, "bogus": 1}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert "bogus" in err

    def test_missing_config_file_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "nope.json"))
        assert code == 3

    @pytest.mark.parametrize("argv, config, message", [
        (["simulate"], {"params": 5}, "'params' must be a JSON object of numbers"),
        (["simulate"], {"params": {"beta0": None}}, "'params' must be a JSON object of numbers"),
        (["simulate"], {"n_units": 2.5}, "'n_units' must be an integer"),
        (["fit"], {"frame": 5, "models": ["t"]}, "'frame' must be a string"),
        (["replicate", "table1"], {"reps": "many"}, "'reps' must be an integer"),
        (["degree-stats"], {"treat_p": True}, "'treat_p' must be a number"),
    ])
    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path, capsys, argv, config,
                                                        message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config | {"out": str(tmp_path / "out")}
                                   if argv[0] != "degree-stats" else config))
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert (code, out, err) == (2, "", f"error: config key {message}\n")
        assert not (tmp_path / "out").exists()


class TestFit:
    @pytest.fixture()
    def noiseless_frame_path(self, tmp_path, capsys):
        run_cli(capsys, "simulate", "--n-units", "1500", "--scenario", "iii",
                "--seed", "21", "--out", str(tmp_path), "--param", "noise_sd=0")
        return tmp_path / "frame.csv"

    def test_tr_recovers_coefficients_exactly(self, noiseless_frame_path, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "fit", "--frame", str(noiseless_frame_path),
                               "--model", "tr", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "fit_tr.json").read_text())
        coef = dict(zip(payload["labels"], payload["coefficients"]))
        expected = {"1": 0.0, "F": -2.0, "D": 2.0, "T": 0.2, "R": 2.0, "D:T": 0.2, "D:R": 2.0}
        for label, value in expected.items():
            assert coef[label] == pytest.approx(value, abs=1e-6)
        assert (tmp_path / "effects_tr.csv").exists()

    def test_effect_csv_has_metadata_and_layout(self, noiseless_frame_path, tmp_path, capsys):
        run_cli(capsys, "fit", "--frame", str(noiseless_frame_path),
                "--model", "tr", "--out", str(tmp_path))
        lines = (tmp_path / "effects_tr.csv").read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "f,t,delta0,tau0,tau_pm,tau1,delta_t,baseline"

    def test_crf1short_restricts_support(self, noiseless_frame_path, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "fit", "--frame", str(noiseless_frame_path),
                               "--model", "crf1short:f=2", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "effects_crf1short-f2.csv").read_text().splitlines()
        data = [line.split(",") for line in lines[2:]]
        assert {row[0] for row in data} == {"2"}
        assert {row[1] for row in data} == {"1", "2"}

    def test_spec_typo_is_usage_error_listing_forms(self, noiseless_frame_path, tmp_path, capsys):
        code, _, err = run_cli(capsys, "fit", "--frame", str(noiseless_frame_path),
                               "--model", "trr", "--out", str(tmp_path))
        assert code == 2
        assert "valid forms" in err

    def test_missing_inputs_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "fit", "--model", "t", "--out", str(tmp_path))
        assert code == 2

    def test_malformed_frame_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "frame.csv"
        bad.write_text("id,y,d,t,f\n1,not-a-number,0,0,1\n")
        code, _, err = run_cli(capsys, "fit", "--frame", str(bad), "--model", "t",
                               "--out", str(tmp_path))
        assert code == 3
        assert "row 2" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_frame_outcome_is_data_error(self, tmp_path, capsys, value):
        bad = tmp_path / "frame.csv"
        # the metadata line counts: the error names the line of the file
        bad.write_text(f'# {{"n_total": 2}}\nid,y,d,t,f\n1,0.5,0,0,1\n2,{value},1,1,1\n')
        code, _, err = run_cli(capsys, "fit", "--frame", str(bad), "--model", "t",
                               "--out", str(tmp_path))
        assert code == 3
        assert "row 4" in err and "not finite" in err

    @pytest.mark.parametrize("row, message", [
        ("2,1.0,2,1,2", "frame CSV row 4: treatment column d must be 0/1, got '2'"),
        ("2,1.0,1,0,0", "frame CSV row 4: f must be >= 1, got '0'"),
        ("2,1.0,1,3,2", "frame CSV row 4: t must satisfy 0 <= t <= f, got t='3', f='2'"),
    ], ids=["d=2", "f=0", "t>f"])
    def test_inconsistent_frame_row_is_data_error(self, tmp_path, capsys, row, message):
        bad = tmp_path / "frame.csv"
        bad.write_text(f'# {{"n_total": 3}}\nid,y,d,t,f\n1,0.5,0,0,1\n{row}\n3,1.5,1,1,1\n')
        code, _, err = run_cli(capsys, "fit", "--frame", str(bad), "--model", "t",
                               "--out", str(tmp_path))
        assert code == 3
        assert err == f"data error: {message}\n"

    def test_repeated_frame_unit_id_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "frame.csv"
        # ids 5, 7, 7, 5: line 5 is the first row that repeats an earlier id
        bad.write_text('# {"n_total": 4}\nid,y,d,t,f\n5,0.5,0,0,1\n7,1.0,1,1,1\n'
                       '7,1.5,0,1,1\n5,2.0,1,0,1\n')
        code, out, err = run_cli(capsys, "fit", "--frame", str(bad), "--model", "t",
                                 "--out", str(tmp_path))
        assert (code, out) == (3, "")
        assert err == "data error: frame CSV row 5: duplicate unit id 7\n"

    def test_frame_without_rows_is_data_error(self, tmp_path, capsys):
        # a one-unit network has no friends, so simulate writes a header only
        run_cli(capsys, "simulate", "--n-units", "1", "--out", str(tmp_path))
        frame = tmp_path / "frame.csv"
        code, out, err = run_cli(capsys, "fit", "--frame", str(frame), "--model", "t",
                                 "--out", str(tmp_path))
        assert (code, out) == (3, "")
        assert err == f"data error: frame CSV {frame} has no rows; nothing to estimate on\n"

    @pytest.mark.parametrize("first, second, normal", [
        ("crf2:J=2", "crf2:J=2,t_order=1", "crf2:J=2"),
        ("t", "t", "t"),
        ("crf1short:f=4", "crf1short:f=04", "crf1short:f=4"),
    ])
    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_repeated_model_spec_is_usage_error(self, tmp_path, capsys, first, second, normal,
                                                source):
        # the frame is never read: the specs are checked first
        argv = ["fit", "--frame", str(tmp_path / "absent.csv"), "--out", str(tmp_path)]
        if source == "flags":
            argv += ["--model", "tr", "--model", first, "--model", second]
        else:
            config = tmp_path / "fit.json"
            config.write_text(json.dumps({"models": ["tr", first, second]}))
            argv += ["--config", str(config)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: model spec {second!r} repeats {first!r}: both are {normal}\n"
        assert not list(tmp_path.glob("fit_*.json"))

    @pytest.mark.parametrize("line", ["# [1, 2]", "# 5", '# "n_total"', '# [["n_total", 1]]'])
    def test_comment_that_is_not_a_json_object_is_skipped(self, noiseless_frame_path, tmp_path,
                                                          capsys, line):
        lines = noiseless_frame_path.read_text().splitlines(keepends=True)
        commented = tmp_path / "commented.csv"
        commented.write_text(lines[0] + line + "\n" + "".join(lines[1:]))
        outputs = []
        for name, frame in (("plain", noiseless_frame_path), ("commented", commented)):
            code, out, err = run_cli(capsys, "fit", "--frame", str(frame), "--model", "tr",
                                     "--model", "crf1long", "--out", str(tmp_path / name))
            assert (code, err) == (0, "")
            outputs.append([out.replace(name, "")]
                           + [(tmp_path / name / f).read_bytes()
                              for f in ("fit_tr.json", "effects_tr.csv", "fit_crf1long.json",
                                        "effects_crf1long.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("models", ['"tr"', '"crf2:J=2"', '["t", 2]', "{}"])
    def test_config_models_must_be_a_list_of_strings(self, noiseless_frame_path, tmp_path,
                                                     capsys, models):
        config = tmp_path / "fit.json"
        config.write_text(f'{{"frame": "{noiseless_frame_path}", "models": {models}}}')
        code, out, err = run_cli(capsys, "fit", "--config", str(config), "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == "error: config key 'models' must be a JSON list of model spec strings\n"
        assert not list(tmp_path.glob("fit_*.json"))

    def test_config_models_list_is_fitted(self, noiseless_frame_path, tmp_path, capsys):
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({"frame": str(noiseless_frame_path),
                                      "models": ["tr", "crf2:J=2"]}))
        code, out, _ = run_cli(capsys, "fit", "--config", str(config), "--out", str(tmp_path))
        assert code == 0
        assert [json.loads(line)["model"] for line in out.splitlines()] == ["tr", "crf2:J=2"]

    @pytest.mark.parametrize("n_total", ['"x"', "null", "1"])
    def test_bad_frame_metadata_n_total_is_data_error(self, tmp_path, capsys, n_total):
        bad = tmp_path / "frame.csv"
        bad.write_text(f'# {{"n_total": {n_total}}}\nid,y,d,t,f\n1,0.5,0,0,1\n2,1.0,1,1,1\n')
        code, _, err = run_cli(capsys, "fit", "--frame", str(bad), "--model", "t",
                               "--out", str(tmp_path))
        assert code == 3
        assert err.startswith("data error: frame CSV is inconsistent: ")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_real_data_outcome_is_data_error(self, tmp_path, capsys, value):
        nodes = tmp_path / "nodes.csv"
        edges = tmp_path / "edges.csv"
        nodes.write_text(f"id,y,d\n1,0.5,1\n2,{value},0\n3,1.5,1\n")
        edges.write_text("src,dst\n1,2\n2,3\n")
        code, _, err = run_cli(capsys, "fit", "--nodes", str(nodes), "--edges", str(edges),
                               "--model", "t", "--out", str(tmp_path))
        assert code == 3
        assert "nodes row 3" in err and "not finite" in err

    @pytest.mark.parametrize("value", ["2", "-1"])
    def test_real_data_treatment_not_binary_is_data_error(self, tmp_path, capsys, value):
        nodes = tmp_path / "nodes.csv"
        edges = tmp_path / "edges.csv"
        nodes.write_text(f"id,y,d\n1,0.5,1\n2,1.0,0\n3,1.5,{value}\n")
        edges.write_text("src,dst\n1,2\n2,3\n")
        code, _, err = run_cli(capsys, "fit", "--nodes", str(nodes), "--edges", str(edges),
                               "--model", "t", "--out", str(tmp_path))
        assert code == 3
        assert "nodes row 4" in err and "d must be 0/1" in err

    def test_crf1long_reports_skipped_units_instead_of_logging(self, noiseless_frame_path,
                                                                tmp_path, capsys):
        code, out, err = run_cli(capsys, "fit", "--frame", str(noiseless_frame_path),
                                 "--model", "crf1long", "--out", str(tmp_path))
        assert code == 0 and err == ""
        skipped = json.loads(out)["skipped_units"]
        assert json.loads((tmp_path / "fit_crf1long.json").read_text())["skipped_units"] == skipped
        # a unit is skipped when its friend count's t=1 effect is not
        # identified, which includes every effect the table leaves empty
        frame, _ = read_frame_csv(noiseless_frame_path)
        counts, means = np.bincount(frame.f), cell_means(frame)
        lines = (tmp_path / "effects_crf1long.csv").read_text().splitlines()[1:]
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        at_one = {int(row["f"]): row for row in rows if row["t"] == "1"}
        for name, field in (("direct", "delta0"), ("network", "tau0"), ("interaction", "tau_pm")):
            unidentified = [f for f in at_one if field not in identified_effects(means, f, 1)]
            assert skipped[name] == sum(int(counts[f]) for f in unidentified), name
            assert {f for f, row in at_one.items() if row[field] == ""} <= set(unidentified)
        assert sum(skipped.values()) > 0

    def test_overflowing_design_is_numerical_failure_without_warnings(self, tmp_path, capsys):
        frame = tmp_path / "frame.csv"
        frame.write_text('# {"n_total": 4}\nid,y,d,t,f\n'
                         "1,0.5,0,0,2\n2,1.0,1,3,3\n3,1.5,0,2,40\n4,2.0,1,0,40\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "fit", "--frame", str(frame), "--model", "crf2:J=200",
                                   "--out", str(tmp_path))
        assert code == 4
        assert err == "numerical failure: design row 2, column 'F^193' is not finite (inf)\n"

    def test_real_data_mode(self, tmp_path, capsys):
        # small graph with varied degrees; outcomes follow an exact linear
        # model so the fit recovers the coefficients to rounding error
        nodes = tmp_path / "nodes.csv"
        edges = tmp_path / "edges.csv"
        d = [1, 0, 1, 0, 1, 0]
        f = [2, 3, 3, 2, 3, 1]
        t = [1, 3, 1, 2, 0, 1]
        y = [1.0 + 2.0 * di + 0.5 * ti - 0.25 * fi for di, ti, fi in zip(d, t, f)]
        nodes.write_text("id,y,d\n" + "".join(
            f"{i + 1},{y[i]},{d[i]}\n" for i in range(6)))
        edges.write_text("src,dst\n1,2\n2,3\n3,4\n4,5\n5,6\n2,5\n1,3\n")
        code, out, _ = run_cli(capsys, "fit", "--nodes", str(nodes), "--edges", str(edges),
                               "--model", "t", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "fit_t.json").read_text())
        coef = dict(zip(payload["labels"], payload["coefficients"]))
        assert coef["1"] == pytest.approx(1.0, abs=1e-8)
        assert coef["D"] == pytest.approx(2.0, abs=1e-8)
        assert coef["T"] == pytest.approx(0.5, abs=1e-8)
        assert coef["F"] == pytest.approx(-0.25, abs=1e-8)


    def test_failing_spec_writes_no_file(self, noiseless_frame_path, tmp_path, capsys):
        # the first spec fits; the second has no rows, so neither writes a file
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "fit", "--frame", str(noiseless_frame_path),
                                 "--model", "t", "--model", "crf1short:f=40",
                                 "--out", str(out_dir))
        assert (code, out) == (3, "")
        assert err == "data error: no rows with F=40 for crf1short:f=40\n"
        assert list(out_dir.iterdir()) == []

    def test_network_without_friendships_names_both_files(self, tmp_path, capsys):
        nodes, edges = tmp_path / "nodes.csv", tmp_path / "edges.csv"
        nodes.write_text("id,y,d\n1,0.5,1\n2,1.5,0\n")
        edges.write_text("src,dst\n")
        code, out, err = run_cli(capsys, "fit", "--nodes", str(nodes), "--edges", str(edges),
                                 "--model", "t", "--out", str(tmp_path / "out"))
        assert (code, out) == (3, "")
        assert err == (f"data error: nodes file {nodes} and edges file {edges} have no units "
                       "with F > 0; nothing to estimate on\n")

    def test_saturated_error_policy_names_the_columns_of_empty_cells(self, tmp_path, capsys):
        # cells (0,0,1) (1,0,1) (0,1,1) (0,0,2); t_max = 1
        frame = tmp_path / "frame.csv"
        frame.write_text('# {"n_total": 4}\nid,y,d,t,f\n'
                         "1,0.5,0,0,1\n2,1.5,1,0,1\n3,2.5,0,1,1\n4,3.0,0,0,2\n")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "fit", "--frame", str(frame), "--model", "crf1long",
                                 "--rank-policy", "error", "--out", str(out_dir))
        assert (code, out) == (4, "")
        assert err == ("numerical failure: design matrix is rank deficient; dependent columns: "
                       "D:T=1:F=1, D:F=2, T=1:F=2, D:T=1:F=2\n")
        assert list(out_dir.iterdir()) == []

    def test_only_qr_fits_report_a_pivot_ratio(self, noiseless_frame_path, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "fit", "--frame", str(noiseless_frame_path), "--model", "tr",
                             "--model", "crf1long", "--model", "crf1short:f=2",
                             "--out", str(tmp_path))
        assert code == 0
        ratios = {name: json.loads((tmp_path / f"fit_{name}.json").read_text())["min_pivot_ratio"]
                  for name in ("tr", "crf1long", "crf1short-f2")}
        assert ratios["crf1long"] is None and ratios["crf1short-f2"] is None
        assert 0.0 < ratios["tr"] <= 1.0

class TestMissingNetworkFiles:
    @pytest.mark.parametrize("missing", ["nodes", "edges"])
    @pytest.mark.parametrize("command", ["fit", "degree-stats"])
    def test_missing_file_is_data_error(self, tmp_path, capsys, command, missing):
        paths = {"nodes": tmp_path / "nodes.csv", "edges": tmp_path / "edges.csv"}
        if missing == "edges":
            paths["nodes"].write_text("id,y,d\n1,0.5,1\n2,1.5,0\n")
        argv = [command, "--nodes", str(paths["nodes"]), "--edges", str(paths["edges"])]
        if command == "fit":
            argv += ["--model", "t", "--out", str(tmp_path / "out")]
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert err == f"data error: {missing} file not found: {paths[missing]}\n"


class TestReplicate:
    def test_smoke_run_writes_reports(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "replicate", "table2", "--reps", "3", "--seed", "6",
            "--n-units", "400", "--out", str(tmp_path),
        )
        assert code == 0
        report = (tmp_path / "table2_report.txt").read_text()
        assert "bias cells failing" in report
        assert out == (f"{report}\nwrote {tmp_path / 'table2_comparison.csv'} and "
                       f"{tmp_path / 'table2_report.txt'}\n")
        csv_lines = (tmp_path / "table2_comparison.csv").read_text().splitlines()
        assert len(csv_lines) == 14  # metadata + header + 12 cells
        metadata = json.loads(csv_lines[0][1:])
        assert metadata["tolerance_scale"] > 1.0

    def test_invalid_table_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["replicate", "table9", "--out", str(tmp_path)])
        assert info.value.code == 2


class TestDegreeStats:
    def test_simulated_summary(self, capsys):
        code, out, _ = run_cli(capsys, "degree-stats", "--n-units", "1000",
                               "--radius", "0.025", "--seed", "12", "--treat-p", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 1000
        assert payload["summary"]["mean_t"] is not None

    def test_ingested_summary(self, tmp_path, capsys):
        (tmp_path / "nodes.csv").write_text("id\n1\n2\n3\n")
        (tmp_path / "edges.csv").write_text("src,dst\n1,2\n")
        code, out, _ = run_cli(capsys, "degree-stats", "--nodes", str(tmp_path / "nodes.csv"),
                               "--edges", str(tmp_path / "edges.csv"))
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["retained_fraction"] == pytest.approx(2 / 3)

    def test_self_loop_is_data_error(self, tmp_path, capsys):
        (tmp_path / "nodes.csv").write_text("id\n1\n2\n")
        (tmp_path / "edges.csv").write_text("src,dst\n1,1\n")
        code, _, err = run_cli(capsys, "degree-stats", "--nodes", str(tmp_path / "nodes.csv"),
                               "--edges", str(tmp_path / "edges.csv"))
        assert code == 3
        assert "self-loop" in err

    def test_calibrate_mean_degree(self, capsys):
        code, out, _ = run_cli(capsys, "degree-stats", "--n-units", "600",
                               "--seed", "3", "--calibrate-mean-degree", "3.0")
        assert code == 0
        payload = json.loads(out)
        assert 0.01 < payload["calibrated_radius"] < 0.08


# blank lines (here line 3 of each file) are skipped, but every error still
# names the line of the file that holds the offending row
BLANK_LINE_FAULTS = {
    "nodes value": ("id,y,d\n1,0.5,1\n\n2,{bad},0\n3,1.5,1\n", "src,dst\n1,2\n2,3\n",
                    "nodes row 4"),
    "edges value": ("id,y,d\n1,0.5,1\n2,1.0,0\n", "src,dst\n1,2\n\n1,x\n", "edges row 4"),
    "unknown id": ("id,y,d\n1,0.5,1\n2,1.0,0\n", "src,dst\n1,2\n\n1,9\n", "edges row 4"),
    "self-loop": ("id,y,d\n1,0.5,1\n2,1.0,0\n", "src,dst\n1,2\n\n2,2\n", "edges row 4"),
    "duplicate id": ("id,y,d\n1,0.5,1\n\n1,1.0,0\n", "src,dst\n1,2\n", "nodes row 4"),
}


class TestBlankLines:
    @pytest.mark.parametrize("fault", sorted(BLANK_LINE_FAULTS))
    def test_fit_names_file_line(self, tmp_path, capsys, fault):
        nodes_text, edges_text, where = BLANK_LINE_FAULTS[fault]
        (tmp_path / "nodes.csv").write_text(nodes_text.format(bad="inf"))
        (tmp_path / "edges.csv").write_text(edges_text)
        code, _, err = run_cli(capsys, "fit", "--nodes", str(tmp_path / "nodes.csv"),
                               "--edges", str(tmp_path / "edges.csv"),
                               "--model", "t", "--out", str(tmp_path))
        assert code == 3
        assert where + ":" in err

    @pytest.mark.parametrize("fault", sorted(BLANK_LINE_FAULTS))
    def test_degree_stats_names_file_line(self, tmp_path, capsys, fault):
        nodes_text, edges_text, where = BLANK_LINE_FAULTS[fault]
        # degree-stats reads only the id column, so the bad value goes there
        nodes_text = nodes_text.replace("id,y,d", "id").replace("2,{bad}", "{bad},0")
        (tmp_path / "nodes.csv").write_text(nodes_text.format(bad="x"))
        (tmp_path / "edges.csv").write_text(edges_text)
        code, _, err = run_cli(capsys, "degree-stats", "--nodes", str(tmp_path / "nodes.csv"),
                               "--edges", str(tmp_path / "edges.csv"))
        assert code == 3
        assert where + ":" in err

    def test_blank_lines_do_not_change_the_fit(self, tmp_path, capsys):
        nodes = "id,y,d\n1,0.5,1\n2,1.0,0\n3,2.5,1\n4,1.0,0\n5,3.5,1\n"
        edges = "src,dst\n1,2\n2,3\n3,4\n4,5\n5,1\n1,3\n"
        payloads = []
        for name, newline in (("plain", "\n"), ("blank", "\n\n")):
            (tmp_path / f"{name}_nodes.csv").write_text(nodes.replace("\n", newline))
            (tmp_path / f"{name}_edges.csv").write_text(edges.replace("\n", newline))
            code, _, _ = run_cli(capsys, "fit", "--nodes", str(tmp_path / f"{name}_nodes.csv"),
                                 "--edges", str(tmp_path / f"{name}_edges.csv"),
                                 "--model", "t", "--out", str(tmp_path / name))
            assert code == 0
            payloads.append(json.loads((tmp_path / name / "fit_t.json").read_text()))
        plain, blank = payloads
        assert plain["coefficients"] == blank["coefficients"]


@st.composite
def frames_with_metadata(draw):
    """A valid frame with any finite float outcomes, and JSON metadata holding its n_total."""
    n = draw(st.integers(1, 15))
    f = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    frame = SampleFrame(
        y=np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                 min_size=n, max_size=n)), dtype=float),
        d=np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))),
        t=np.array([draw(st.integers(0, fi)) for fi in f]),
        f=np.array(f),
        ids=np.array(draw(st.lists(st.integers(0, 10**12), min_size=n, max_size=n, unique=True))),
        n_total=n + draw(st.integers(0, 5)),
    )
    value = st.none() | st.booleans() | st.integers() | st.text() | st.floats(allow_nan=False)
    metadata = draw(st.dictionaries(st.text(), value, max_size=4))
    metadata["n_total"] = frame.n_total
    return frame, metadata


def written_frame_text(frame, metadata):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frame.csv"
        write_frame_csv(path, frame, metadata)
        return path.read_text(encoding="utf-8")


class TestFrameCsvProperties:
    @settings(deadline=None)
    @given(frames_with_metadata())
    def test_round_trip_preserves_frame_and_metadata(self, case):
        frame, metadata = case
        got, got_metadata = read_frame_csv(io.StringIO(written_frame_text(frame, metadata)))
        assert got.y.tobytes() == frame.y.tobytes()
        for name in ("d", "t", "f", "ids"):
            assert np.array_equal(getattr(got, name), getattr(frame, name)), name
        assert got.n_total == frame.n_total
        assert got_metadata == metadata

    @settings(deadline=None)
    @given(frames_with_metadata(), st.lists(st.text("abc,", max_size=4), max_size=3))
    def test_header_starting_with_frame_columns_ignores_extra_columns(self, case, extra):
        # like the nodes and edges files: the header must start with id,y,d,t,f
        frame, metadata = case
        lines = written_frame_text(frame, metadata).split("\n")
        suffix = "".join("," + text for text in extra)
        lines[1:] = [line + suffix if line else line for line in lines[1:]]
        got, _ = read_frame_csv(io.StringIO("\n".join(lines)))
        assert got.y.tobytes() == frame.y.tobytes()
        for name in ("d", "t", "f", "ids"):
            assert np.array_equal(getattr(got, name), getattr(frame, name)), name
        lines[1] = "id,y,t,d,f" + suffix
        with pytest.raises(DataError, match="must start with header 'id,y,d,t,f'"):
            read_frame_csv(io.StringIO("\n".join(lines)))

    @settings(deadline=None)
    @given(frames_with_metadata(), st.data())
    def test_corrupted_row_names_its_file_line(self, case, data):
        frame, metadata = case
        lines = written_frame_text(frame, metadata).split("\n")
        # line 1 is the metadata comment and line 2 the header
        line = data.draw(st.integers(3, frame.n_selected + 2))
        fields = lines[line - 1].split(",")
        fields[data.draw(st.integers(0, 4))] = "x"
        lines[line - 1] = ",".join(fields)
        with pytest.raises(DataError, match=f"^frame CSV row {line}: malformed row"):
            read_frame_csv(io.StringIO("\n".join(lines)))


# str.splitlines ends a line at each of these too; the csv module does not
LINE_BREAKING_CHARACTERS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestFrameCsvLineEnds:
    @staticmethod
    def outcome(read, text):
        """The d column read from ``text``, or the file line and d field of
        the row the reader rejects."""
        try:
            return read(text)
        except DataError as exc:
            line, row = re.search(r"row (\d+): malformed row (.*)$", str(exc)).groups()
            return int(line), ast.literal_eval(row)[2]

    @pytest.mark.parametrize("char", LINE_BREAKING_CHARACTERS)
    def test_character_in_a_field_reads_as_in_a_nodes_file(self, char):
        def nodes(text):
            (_, _, d), _ = read_table(text, ("id", "y", "d"), "nodes", (int, float, int),
                                      "nodes row {line}: malformed row {row!r}")
            return d.tolist()

        def frame(text):
            return read_frame_csv(io.StringIO(text))[0].d.tolist()

        # line 1 is a metadata comment in the frame file and a header in the nodes file
        want = self.outcome(nodes, f"id,y,d\n\n1,0.5,1{char}\n2,1.5,0\n")
        got = self.outcome(frame, f"# {{}}\nid,y,d,t,f\n1,0.5,1{char},0,1\n2,1.5,0,1,1\n")
        assert got == want

    @pytest.mark.parametrize("char", LINE_BREAKING_CHARACTERS)
    def test_later_bad_row_keeps_its_file_line(self, char):
        text = f"# {{}}\nid,y,d,t,f\n1,0.5,1,0,1{char}\n2,1.5,0,1,1\n3,x,0,1,1\n"
        try:
            int(f"1{char}")
        except ValueError:
            line = 3  # the field itself is malformed, in the row that holds it
        else:
            line = 5
        with pytest.raises(DataError, match=f"^frame CSV row {line}: malformed row"):
            read_frame_csv(io.StringIO(text))
