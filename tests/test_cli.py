import json

import numpy as np
import pytest

from netcrf.cli import main, read_frame_csv


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


class TestReplicate:
    def test_smoke_run_writes_reports(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "replicate", "table2", "--reps", "3", "--seed", "6",
            "--n-units", "400", "--out", str(tmp_path),
        )
        assert code == 0
        report = (tmp_path / "table2_report.txt").read_text()
        assert "bias cells failing" in report
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
