"""Command-line harness: outputs, determinism, exit codes, config files."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dephaselab
from dephaselab import cli
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


class TestStartUp:
    def test_cli_import_loads_no_scipy(self):
        # scipy.linalg alone costs about 0.24 s of every CLI start
        src = str(Path(dephaselab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, dephaselab.cli; dephaselab.cli.build_parser(); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


class TestSizes:
    def test_fig3_above_the_old_joint_cap(self, tmp_path):
        # joint dimension 17^3 = 4913 exceeds dim_cap; fig3 never forms the joint
        prefix = tmp_path / "sweep"
        assert main(["fig3", "--m", "17", "--samples", "4",
                     "--out", str(prefix), "--deterministic"]) == 0
        assert len(payload_lines(Path(f"{prefix}_m17.csv"))) > 17

    @pytest.mark.parametrize("command", ["transition", "classical-dephase"])
    def test_gram_channel_commands_above_the_old_joint_cap(self, command, tmp_path):
        # d * ceil(sqrt(d)) = 300 * 18 exceeds dim_cap; the pinch is d x d
        out = tmp_path / "o.csv"
        assert main([command, "--d", "300", "--trials", "1",
                     "--out", str(out), "--deterministic"]) == 0
        assert len(payload_lines(out)) == (3 if command == "transition" else 2)

    def test_bounds_above_the_old_joint_cap(self, tmp_path):
        # d * ceil(sqrt(d)) = 300 * 18 exceeds dim_cap; no joint is formed
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--d", "300", "--out", str(out), "--deterministic"]) == 0
        doc = json.loads(out.read_text())
        assert (doc["quantum"]["m"], doc["classical"]["m"]) == (18, 300)
        assert doc["quantum"]["satisfied"] and doc["classical"]["satisfied"]

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


STACKED = [["dephase", "--d", "5", "--trials", "7"],
           ["classical-dephase", "--d", "6", "--trials", "7"],
           ["transition", "--d", "4", "--trials", "7"]]


class TestTrialStacks:
    @pytest.mark.parametrize("command", [argv[0] for argv in STACKED])
    def test_zero_trials_write_a_header_only_file(self, command, tmp_path):
        out = tmp_path / "o.csv"
        assert main([command, "--trials", "0", "--out", str(out), "--deterministic"]) == 0
        assert len(payload_lines(out)) == 1

    @pytest.mark.parametrize("argv", STACKED, ids=[argv[0] for argv in STACKED])
    def test_one_trial_per_chunk_writes_the_same_bytes(self, argv, tmp_path, monkeypatch):
        whole, single = tmp_path / "whole.csv", tmp_path / "single.csv"
        assert main(argv + ["--out", str(whole), "--deterministic"]) == 0
        monkeypatch.setattr(cli, "_CHUNK_ENTRIES", 1)
        assert main(argv + ["--out", str(single), "--deterministic"]) == 0
        assert single.read_bytes() == whole.read_bytes()

    def test_config_defaults_do_not_outlive_their_call(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 5}))
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["--config", str(cfg), "dephase", "--trials", "1",
                     "--out", str(first), "--deterministic"]) == 0
        assert main(["dephase", "--trials", "1", "--out", str(second), "--deterministic"]) == 0
        assert payload_lines(first)[1].startswith("5,0,")
        assert payload_lines(second)[1].startswith("9,0,")


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

    @pytest.mark.parametrize("argv, text, code, prefix", [
        (["dephase"], "5", 2, "error: bad tolerance file: "),
        (["dephase"], "null", 2, "error: bad tolerance file: "),
        (["dephase"], "[1e-9]", 2, "error: bad tolerance file: "),
        (["dephase"], "{", 2, "error: bad tolerance file: "),
        (["chain"], '{"dim_cap": "x"}', 2, "error: bad tolerance file: "),
        (["bounds"], '{"dim_cap": "x"}', 2, "error: bad tolerance file: "),
        (["bounds"], '{"dim_cap": 1e400}', 2, "error: bad tolerance file: "),
        (["bounds"], '{"dim_cap": 4096.0}', 2, "error: bad tolerance file: "),
        (["bounds"], '{"dim_cap": 0}', 2, "error: bad tolerance file: "),
        (["dephase"], '{"dephasing_residual": NaN}', 2, "error: bad tolerance file: "),
        (["dephase"], '{"dephasing_residual": true}', 2, "error: bad tolerance file: "),
        (["dephase"], '{"dephasing_residual": 1e400}', 2, "error: bad tolerance file: "),
        (["dephase"], '{"dephasing_residual": 1%s}' % ("0" * 400), 2,
         "error: bad tolerance file: "),
        (["dephase"], '{"no_such_field": 1}', 2, "error: bad tolerance file: "),
        (["machine"], '{"trace_one": 0}', 1, "check failed: "),
        (["transition", "--trials", "2"], '{"trace_one": 0}', 1, "check failed: "),
        (["pqc"], '{"trace_one": 0}', 1, "check failed: "),
        (["pqc"], '{"bell_match": 0}', 1, "check failed: "),
    ], ids=["number", "null", "list", "truncated", "chain-cap-string", "bounds-cap-string",
            "cap-inf", "cap-float", "cap-zero", "nan", "bool", "inf", "huge-int",
            "unknown-name", "machine-trace", "transition-trace", "pqc-trace",
            "pqc-bell-match"])
    def test_tolerance_file_never_ends_in_a_traceback(self, argv, text, code, prefix,
                                                      tmp_path, capsys):
        tol = tmp_path / "tol.json"
        tol.write_text(text)
        out = tmp_path / "o"
        assert main(argv + ["--tol-file", str(tol), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(prefix)
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["dephase", "--d", "1"], "dephasing needs system dimension >= 2"),
        (["recur", "--m", "4"], "recurrence construction requires odd m >= 3"),
        (["machine", "--iters", "0"], "need at least one fuel state"),
        (["expander", "--e", "4"], "lattice size must be odd and >= 3"),
        (["transition", "--d", "4097", "--trials", "1"],
         "joint dimension 4097 exceeds the configured cap 4096"),
        (["classical-dephase", "--d", "4097", "--trials", "1"],
         "joint dimension 4097 exceeds the configured cap 4096"),
        (["transition", "--d", "4097", "--trials", "1", "--mode", "classical"],
         "joint dimension 4097 exceeds the configured cap 4096"),
        (["bounds", "--d", "4097"],
         "joint dimension 4097 exceeds the configured cap 4096"),
        (["dephase", "--d", "4097", "--trials", "1"],
         "joint dimension 4097 exceeds the configured cap 4096"),
        (["machine", "--d", "4097"],
         "joint dimension 4097 exceeds the configured cap 4096"),
        (["recur", "--m", "65"],
         "joint dimension 4225 exceeds the configured cap 4096"),
        (["fig3", "--m", "3,65"],
         "joint dimension 4225 exceeds the configured cap 4096"),
        (["expander", "--e", "65"],
         "joint dimension 4225 exceeds the configured cap 4096"),
    ])
    def test_precondition_and_cap_errors_are_two(self, argv, message, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "o").exists()
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, dim", [
        (["dephase", "--d", "16"], 16),
        (["machine", "--d", "16"], 16),
        (["recur", "--m", "5"], 25),
        (["fig3", "--m", "5"], 25),
        (["expander", "--e", "5"], 25),
        (["transition", "--d", "16"], 16),
        (["classical-dephase", "--d", "16"], 16),
        (["bounds", "--d", "16"], 16),
        (["chain"], 16),
        (["pqc"], 64),
    ], ids=["dephase", "machine", "recur", "fig3", "expander", "transition",
            "classical-dephase", "bounds", "chain", "pqc"])
    def test_every_command_checks_a_lowered_cap(self, argv, dim, tmp_path, capsys):
        tol = tmp_path / "tol.json"
        tol.write_text(json.dumps({"dim_cap": 10}))
        out = tmp_path / "o"
        assert main(argv + ["--tol-file", str(tol), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: joint dimension {dim} exceeds the configured cap 10"]
        assert not list(tmp_path.glob("o*"))

    @pytest.mark.parametrize("argv, flag", [
        (["dephase", "--trials", "-1"], "--trials"),
        (["classical-dephase", "--trials", "-1"], "--trials"),
        (["transition", "--trials", "-1"], "--trials"),
        (["chain", "--n", "-1"], "--n"),
        (["fig3", "--samples", "-1"], "--samples"),
        (["fig3", "--m", ""], "--m"),
        (["recur", "--kmax", "-3"], "--kmax"),
        (["machine", "--d", "0"], "--d"),
        (["chain", "--d", "0"], "--d"),
        (["machine", "--d", "-1"], "--d"),
        (["chain", "--d", "-2"], "--d"),
        (["transition", "--d", "0", "--trials", "1"], "--d"),
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

    def test_null_config_value_keeps_the_default_output_name(self, tmp_path,
                                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"out": None, "trials": 1}))
        assert main(["--config", "cfg.json", "dephase", "--d", "3"]) == 0
        assert (tmp_path / "dephase.csv").exists()
        assert not (tmp_path / "None").exists()

    def test_null_kmax_in_config_keeps_the_two_m_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "r.csv"
        cfg.write_text(json.dumps({"kmax": None, "m": 3, "out": str(out)}))
        assert main(["--config", str(cfg), "recur", "--deterministic"]) == 0
        assert len(payload_lines(out)) == 1 + 2 * 3

    def test_config_list_values_reach_list_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        prefix = tmp_path / "sweep"
        cfg.write_text(json.dumps({"m": [3], "samples": 4, "out": str(prefix)}))
        assert main(["--config", str(cfg), "fig3", "--deterministic"]) == 0
        assert Path(f"{prefix}_m3.csv").exists()


DIMS = st.integers(-2, 16)
COUNTS = st.integers(-1, 3)

#: Per command, the flags the contract test draws and their values; chain
#: stays at n <= 3 and d <= 4, so no draw starts a multi-second dense joint.
CONTRACT_FLAGS = {
    "dephase": {"d": DIMS, "trials": COUNTS},
    "classical-dephase": {"d": DIMS, "trials": COUNTS},
    "transition": {"d": DIMS, "trials": COUNTS,
                   "mode": st.sampled_from(["quantum", "classical", "both"])},
    "chain": {"n": COUNTS, "d": st.integers(-2, 4)},
    "machine": {"d": DIMS, "iters": COUNTS},
    "recur": {"m": DIMS, "kmax": COUNTS},
    "fig3": {"m": DIMS, "samples": COUNTS},
    "pqc": {"rounds": COUNTS, "error": st.sampled_from(["0000", "0100", "1011", "1111"])},
    "expander": {"e": DIMS, "k": COUNTS},
    "bounds": {"d": DIMS, "epsilon": st.sampled_from(
        [math.nan, math.inf, -0.1, 0.0, 0.05, 0.5, 2.5])},
}


@st.composite
def cli_call(draw):
    """(command, {flag: value}, {flag: value}): each flag is left at its
    default, given on the command line or set through ``--config``.  fig3
    always gets one m, so a run writes exactly one file."""
    command = draw(st.sampled_from(sorted(CONTRACT_FLAGS)))
    flags, config = {}, {}
    for flag, values in CONTRACT_FLAGS[command].items():
        places = ["argv", "config"]
        if (command, flag) != ("fig3", "m"):
            places.append("default")
        place = draw(st.sampled_from(places))
        if place != "default":
            (flags if place == "argv" else config)[flag] = draw(values)
    return command, flags, config


class TestInputContract:
    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(cli_call())
    def test_every_input_runs_or_is_refused(self, call):
        command, flags, config = call
        composite_fig3 = command == "fig3" and {**flags, **config}["m"] in (9, 15)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "out")
            out.mkdir()
            argv = [command]
            for flag, value in flags.items():
                argv += [f"--{flag}", str(value)]
            if config:
                cfg = Path(tmp, "cfg.json")
                cfg.write_text(json.dumps(config))
                argv = ["--config", str(cfg)] + argv
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv + ["--out", str(out / "o"), "--deterministic"])
                except SystemExit as exc:
                    code = exc.code
            written = list(out.iterdir())
        assert code in ((1, 2) if composite_fig3 else (0, 2)), (argv, config, code)
        assert "Traceback" not in stderr.getvalue()
        assert len(written) == (1 if code == 0 else 0), (argv, config, written)
