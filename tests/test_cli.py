"""Command-line harness: outputs, determinism, exit codes, config files."""

import json
from pathlib import Path

import pytest

from dephaselab.cli import main


def payload_lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


class TestCommandsRun:
    def test_dephase(self, tmp_path):
        out = tmp_path / "dephase.csv"
        assert main(["dephase", "--d", "6", "--trials", "5",
                     "--out", str(out), "--deterministic"]) == 0
        lines = payload_lines(out)
        assert lines[0] == "d,trial,system_residual,ancilla_residual"
        assert len(lines) == 6
        assert all(float(ln.split(",")[2]) <= 1e-10 for ln in lines[1:])

    def test_classical_dephase(self, tmp_path):
        out = tmp_path / "cd.csv"
        assert main(["classical-dephase", "--d", "5", "--trials", "4",
                     "--out", str(out), "--deterministic"]) == 0
        header = out.read_text().splitlines()
        assert any("witness_rank" in ln for ln in header)

    def test_transition(self, tmp_path):
        out = tmp_path / "tr.csv"
        assert main(["transition", "--d", "3", "--trials", "5",
                     "--out", str(out), "--deterministic"]) == 0
        lines = payload_lines(out)
        assert lines[0] == "d,trial,mode,m,error"
        assert len(lines) == 11  # both modes per trial

    def test_chain(self, tmp_path):
        out = tmp_path / "chain.json"
        assert main(["chain", "--n", "2", "--d", "2",
                     "--out", str(out), "--deterministic"]) == 0
        doc = json.loads(out.read_text())
        assert max(doc["marginal_residuals"]) <= 1e-9
        assert doc["catalyst_residual"] <= 1e-9

    def test_machine(self, tmp_path):
        out = tmp_path / "machine.csv"
        assert main(["machine", "--d", "4", "--iters", "6",
                     "--out", str(out), "--deterministic"]) == 0
        lines = payload_lines(out)
        assert lines[0] == "n,dist_system,dist_ancilla,entropy,bound"
        assert len(lines) == 7

    def test_recur(self, tmp_path):
        out = tmp_path / "recur.csv"
        assert main(["recur", "--m", "3", "--out", str(out),
                     "--deterministic"]) == 0
        lines = payload_lines(out)
        assert len(lines) == 7  # header + k = 1..6

    def test_fig3(self, tmp_path):
        prefix = tmp_path / "sweep"
        assert main(["fig3", "--m", "3", "--samples", "8",
                     "--out", str(prefix), "--deterministic"]) == 0
        out = Path(f"{prefix}_m3.csv")
        lines = payload_lines(out)
        assert lines[0] == "m,t_over_m,distance"

    def test_pqc(self, tmp_path):
        out = tmp_path / "pqc.json"
        assert main(["pqc", "--error", "0100", "--rounds", "6",
                     "--out", str(out), "--deterministic"]) == 0
        doc = json.loads(out.read_text())
        assert doc["syndrome"] != "0000"
        assert doc["recovered_fidelity"] >= 1 - 1e-9
        assert doc["ebits_consumed"] == 6

    def test_expander(self, tmp_path):
        out = tmp_path / "exp.csv"
        assert main(["expander", "--e", "3", "--k", "10",
                     "--out", str(out), "--deterministic"]) == 0
        lines = payload_lines(out)
        assert lines[0] == "k,measured_2norm,bound"
        assert len(lines) == 12

    def test_bounds(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--d", "9", "--epsilon", "0.01",
                     "--out", str(out), "--deterministic"]) == 0
        doc = json.loads(out.read_text())
        assert doc["quantum"]["satisfied"] and doc["classical"]["satisfied"]
        assert doc["entropy_budget"]["saturated"]


class TestSizes:
    def test_fig3_above_the_old_joint_cap(self, tmp_path):
        # joint dimension 17^3 = 4913 exceeds dim_cap; fig3 never forms the joint
        prefix = tmp_path / "sweep"
        assert main(["fig3", "--m", "17", "--samples", "4",
                     "--out", str(prefix), "--deterministic"]) == 0
        assert len(payload_lines(Path(f"{prefix}_m17.csv"))) > 17

    def test_expander_at_e15(self, tmp_path):
        out = tmp_path / "expander.csv"
        assert main(["expander", "--e", "15", "--k", "30",
                     "--out", str(out), "--deterministic"]) == 0
        assert len(payload_lines(out)) == 32   # header + k = 0..30

    def test_composite_fig3_fails_before_writing(self, tmp_path, capsys):
        prefix = tmp_path / "f"
        assert main(["fig3", "--m", "9", "--samples", "16",
                     "--out", str(prefix), "--deterministic"]) == 1
        assert capsys.readouterr().err == (
            "check failed: integer-time distance too large at m=9, t=3\n")
        assert not Path(f"{prefix}_m9.csv").exists()


class TestReproducibility:
    @pytest.mark.parametrize("cmd", [
        ["dephase", "--d", "5", "--trials", "4", "--seed", "9"],
        ["machine", "--d", "4", "--iters", "5", "--seed", "9"],
        ["pqc", "--seed", "9"],
    ])
    def test_deterministic_reruns_byte_identical(self, cmd, tmp_path):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert main(cmd + ["--out", str(a), "--deterministic"]) == 0
        assert main(cmd + ["--out", str(b), "--deterministic"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_in_header(self, tmp_path):
        out = tmp_path / "x.csv"
        main(["dephase", "--d", "4", "--trials", "2", "--seed", "123",
              "--out", str(out), "--deterministic"])
        assert "# seed: 123" in out.read_text()


class TestExitCodes:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["dephase", "--nonsense"])
        assert exc.value.code == 2

    def test_unknown_config_field_is_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frobnicate": 1}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "dephase"])
        assert exc.value.code == 2

    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "из.csv"
        cfg.write_text(json.dumps({"d": 5, "trials": 3, "deterministic": True,
                                   "out": str(out)}))
        assert main(["--config", str(cfg), "dephase"]) == 0
        assert len(payload_lines(out)) == 4

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "o.csv"
        cfg.write_text(json.dumps({"trials": 3}))
        assert main(["--config", str(cfg), "dephase", "--d", "4",
                     "--trials", "2", "--out", str(out), "--deterministic"]) == 0
        assert len(payload_lines(out)) == 3

    def test_check_failure_is_one(self, tmp_path):
        # an impossible tolerance forces the internal verification to fail
        tol = tmp_path / "tol.json"
        tol.write_text(json.dumps({"dephasing_residual": 0.0}))
        out = tmp_path / "o.csv"
        assert main(["dephase", "--d", "4", "--trials", "2",
                     "--tol-file", str(tol), "--out", str(out)]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["dephase", "--d", "1"], "dephasing needs system dimension >= 2"),
        (["recur", "--m", "4"], "recurrence construction requires odd m >= 3"),
        (["machine", "--iters", "0"], "need at least one fuel state"),
        (["expander", "--e", "4"], "lattice size must be odd and >= 3"),
        (["transition", "--d", "1024", "--trials", "1"],
         "joint dimension 32768 exceeds the configured cap 4096"),
        (["classical-dephase", "--d", "1024", "--trials", "1"],
         "joint dimension 32768 exceeds the configured cap 4096"),
        (["transition", "--d", "1024", "--trials", "1", "--mode", "classical"],
         "joint dimension 32768 exceeds the configured cap 4096"),
    ])
    def test_precondition_and_cap_errors_are_two(self, argv, message, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["dephase", "--trials", "-1"], "--trials"),
        (["classical-dephase", "--trials", "-1"], "--trials"),
        (["transition", "--trials", "-1"], "--trials"),
        (["chain", "--n", "-1"], "--n"),
        (["fig3", "--samples", "-1"], "--samples"),
        (["fig3", "--m", ""], "--m"),
        (["recur", "--kmax", "-3"], "--kmax"),
    ])
    def test_negative_or_empty_counts_are_usage_errors(self, argv, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_negative_count_from_config_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": -1, "out": str(tmp_path / "o")}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "dephase"])
        assert exc.value.code == 2
        assert "argument --trials:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_malformed_error_bits_are_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pqc", "--error", "012"])
        assert exc.value.code == 2
        assert "error must be four bits" in capsys.readouterr().err

    def test_composite_fig3_still_fails_its_check(self, tmp_path, capsys):
        assert main(["fig3", "--m", "9", "--samples", "4",
                     "--out", str(tmp_path / "f")]) == 1
        assert capsys.readouterr().err == (
            "check failed: integer-time distance too large at m=9, t=3\n")

    @pytest.mark.parametrize("key", ["command", "config"])
    def test_config_cannot_set_command_or_config(self, key, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "recur"}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "dephase"])
        assert exc.value.code == 2

    def test_config_values_parsed_by_flag_types(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "o.csv"
        cfg.write_text(json.dumps({"d": "4", "trials": "2", "out": str(out)}))
        assert main(["--config", str(cfg), "dephase", "--deterministic"]) == 0
        lines = payload_lines(out)
        assert len(lines) == 3 and lines[1].startswith("4,0,")

    def test_config_value_of_wrong_type_is_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": "four"}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "dephase"])
        assert exc.value.code == 2

    def test_flag_overrides_string_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "o.csv"
        cfg.write_text(json.dumps({"d": "4", "trials": "2"}))
        assert main(["--config", str(cfg), "dephase", "--d", "3", "--trials", "1",
                     "--out", str(out), "--deterministic"]) == 0
        lines = payload_lines(out)
        assert len(lines) == 2 and lines[1].startswith("3,0,")

    def test_config_list_values_reach_list_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        prefix = tmp_path / "sweep"
        cfg.write_text(json.dumps({"m": [3], "samples": 4, "out": str(prefix)}))
        assert main(["--config", str(cfg), "fig3", "--deterministic"]) == 0
        assert Path(f"{prefix}_m3.csv").exists()
