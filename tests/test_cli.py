import contextlib
import dataclasses
import errno
import hashlib
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import EXTREME_COEFFICIENTS

import qutrit_qkd
from qutrit_qkd import bell, cli, protocol, transcript
from qutrit_qkd.cli import _parse_rounds, main
from qutrit_qkd.linalg import ValidationError
from qutrit_qkd.trits import read_key_file

TABLE_KEY = "022001122110002100222201212222122212001221212002201121210212222122222"
TABLE_CIPHER = "220022100002121111122100011120011201201110221111020022100101120000001"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_block(out):
    lines = out.splitlines()
    start = lines.index("-- machine readable --")
    values = {}
    for line in lines[start + 1:]:
        name, _, value = line.partition(" ")
        values[name] = value
    return values


class TestBellCommand:
    def test_default_maximal_state(self, capsys):
        code, out, _ = run_cli(capsys, "bell")
        assert code == 0
        values = machine_block(out)
        assert float(values["s3_exact"]) == pytest.approx(bell.QUANTUM_MAX, abs=1e-12)
        assert abs(float(values["s3_exact"]) - 2.8729) < 1e-4
        assert float(values["s3_optimized"]) >= float(values["s3_exact"]) - 1e-6
        assert "config:" in out

    def test_zero_visibility(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--visibility", "0")
        assert code == 0
        assert float(machine_block(out)["s3_exact"]) == pytest.approx(0.0, abs=1e-12)
        assert float(machine_block(out)["s3_optimized"]) == pytest.approx(0.0, abs=1e-12)

    def test_measured_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--coefficients", "0.642,0.546,0.539")
        assert code == 0
        values = machine_block(out)
        assert float(values["s3_optimized"]) >= 2.80
        assert float(values["normalization_divisor"]) == pytest.approx(
            np.sqrt(1.000801), rel=1e-6)

    @pytest.mark.parametrize("coefficients", [(1, 1, 1), protocol.REFERENCE_COEFFICIENTS,
                                              (1, 0.7, 0.4)])
    def test_one_state_with_the_sessions(self, capsys, coefficients):
        # bell.s3 of the source's mixture, and the command's exact S3, are the
        # sessions' exact S3: all three read the one Schmidt-form state
        flag = ",".join(map(str, coefficients))
        for v, b in itertools.product((0, 0.5, 0.9, 1), (0, 0.1, 0.3, 1)):
            source = protocol.SourceConfig(coefficients, v, b)
            want = protocol.exact_session_s3(source)
            assert abs(bell.s3(source.mixture, bell.CANONICAL_SETTINGS) - want) <= 1e-15
            code, out, _ = run_cli(capsys, "bell", "--coefficients", flag,
                                   "--visibility", str(v), "--background", str(b))
            assert code == 0 and abs(float(machine_block(out)["s3_exact"]) - want) <= 1e-15

    def test_validation_error_names_field(self, capsys):
        code, _, err = run_cli(capsys, "bell", "--visibility", "1.4")
        assert code == 2
        assert "visibility" in err


    def test_nan_tolerance_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bell", "--tolerance", "nan")
        assert code == 2
        assert "tolerance" in err

    @pytest.mark.parametrize("seed", ["1225932841", "1660815165"])
    def test_optimized_not_below_canonical_start(self, capsys, seed):
        # at these seeds a later restart outranked the canonical start by the
        # ~1e-12 rounding of the phase polynomial and landed below it exactly
        code, out, _ = run_cli(capsys, "bell", "--coefficients", "0.642,0.546,0.539",
                               "--seed", seed)
        assert code == 0
        values = machine_block(out)
        assert float(values["s3_optimized"]) >= float(values["s3_exact"])


class TestOptimizeCommand:
    def test_phase_family(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--restarts", "6", "--seed", "1")
        assert code == 0
        values = machine_block(out)
        assert float(values["s3_optimized"]) == pytest.approx(bell.QUANTUM_MAX, abs=1e-4)
        assert values["optimizer_converged"] == "1"

    @pytest.mark.parametrize("family, n_params", [("phase", 4), ("unitary", 32)])
    def test_params_parse_as_floats(self, capsys, family, n_params):
        code, out, _ = run_cli(capsys, "optimize", "--family", family, "--restarts", "1",
                               "--tolerance", "1e-2", "--seed", "3")
        assert code == 0
        params = machine_block(out)["params"].split(",")
        assert len(params) == n_params
        assert all(np.isfinite(float(p)) for p in params)

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_nonpositive_restarts_rejected(self, capsys, restarts):
        code, _, err = run_cli(capsys, "optimize", "--restarts", restarts)
        assert code == 2
        assert "restarts" in err

    def test_nan_tolerance_rejected(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--tolerance", "nan")
        assert code == 2
        assert "tolerance" in err

    def test_huge_restarts_rejected_before_allocation(self, capsys):
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, "optimize", "--restarts", "100000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "restarts must be an integer from 1 to 10000, got 100000000" in err
        assert peak < 1_000_000     # the phase starts alone would take 3.2 GB


@pytest.mark.parametrize("extreme, plain", EXTREME_COEFFICIENTS)
def test_bell_extreme_coefficients(capsys, extreme, plain):
    code, out, err = run_cli(capsys, "bell", "--coefficients", extreme)
    assert (code, err) == (0, "")
    _, plain_out, _ = run_cli(capsys, "bell", "--coefficients", plain)
    assert machine_block(out)["s3_exact"] == machine_block(plain_out)["s3_exact"]


@pytest.mark.parametrize("extreme, plain", EXTREME_COEFFICIENTS)
def test_simulate_extreme_coefficients(capsys, tmp_path, extreme, plain):
    def session(coefficients, name):
        return run_cli(capsys, "simulate", "--coefficients", coefficients,
                       "--rounds", "2000", "--out", str(tmp_path / name))

    code, out, err = session(extreme, "extreme")
    assert (code, err) == (0, "")
    values, plain_values = machine_block(out), machine_block(session(plain, "plain")[1])
    for name in ("s3_estimate", "qter", "key_length"):
        assert values[name] == plain_values[name]


class TestSimulateAndSift:
    def test_end_to_end(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "simulate", "--rounds", "20000",
                               "--seed", "3", "--out", str(out_dir))
        assert code == 0
        values = machine_block(out)
        assert values["secure"] == "1"
        assert float(values["qter"]) == 0.0
        assert abs(float(values["fraction_key"]) - 1 / 9) < 0.01
        assert (out_dir / "transcript.txt").exists()
        key_a = read_key_file(out_dir / "key_a.txt")
        key_b = read_key_file(out_dir / "key_b.txt")
        assert np.array_equal(key_a, key_b)
        assert len(key_a) == int(values["key_length"])

        # sifting the transcript reproduces the session analysis exactly
        code2, out2, _ = run_cli(capsys, "sift", "--transcript",
                                 str(out_dir / "transcript.txt"))
        assert code2 == 0
        values2 = machine_block(out2)
        assert values2["s3_estimate"] == values["s3_estimate"]
        assert values2["qter"] == values["qter"]
        paths = ("transcript", "key_a", "key_b")
        assert values2 == {k: v for k, v in values.items() if k not in paths}

    def test_deterministic_output(self, capsys, tmp_path):
        args = ("simulate", "--rounds", "5000", "--seed", "9",
                "--out", str(tmp_path / "d"))
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_header_replays_session(self, capsys, tmp_path):
        cases = [
            (("--profile", "reference", "--rounds", "20000", "--seed", "7"),
             {"coefficients = 0.642,0.546,0.539", f"detection = {1 / 9!r}"}),
            # every key off its default
            (("--eve", "--eve-arm", "A", "--bias", "0.2,0.2,0.6", "--background", "0.05",
              "--detection", "0.7", "--key-crosstalk", "0.01", "--coefficients", "1,0.9,0.8",
              "--visibility", "0.95", "--rounds", "30000", "--seed", "12"),
             {"rounds = 30000", "seed = 12", "coefficients = 1.0,0.9,0.8",
              "visibility = 0.95", "background = 0.05", "detection = 0.7",
              "key_crosstalk = 0.01", "eve = True", "eve_arm = A", "bias = 0.2,0.2,0.6"}),
        ]
        for i, (argv, expected) in enumerate(cases):
            out_dir = tmp_path / f"h{i}"
            code, out1, _ = run_cli(capsys, "simulate", *argv, "--out", str(out_dir))
            assert code == 0
            transcript = (out_dir / "transcript.txt").read_bytes()
            header = [line[2:] for line in transcript.decode().splitlines()
                      if line.startswith("# ")]
            assert expected <= set(header)
            cfg = tmp_path / f"hdr{i}.cfg"
            cfg.write_text("\n".join(header) + "\n")
            code, out2, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                                    "--out", str(out_dir))
            assert code == 0
            assert machine_block(out2) == machine_block(out1)
            assert (out_dir / "transcript.txt").read_bytes() == transcript

    def test_verdict_lines_render(self, capsys, tmp_path):
        """The verdict and QTER lines of a secure and of an eavesdropped session."""
        cases = ((("--seed", "3"), "SECURE"), (("--seed", "4", "--eve"), "NOT SECURE"))
        for argv, verdict in cases:
            code, out, _ = run_cli(capsys, "simulate", "--rounds", "20000", *argv,
                                   "--out", str(tmp_path / "v"))
            assert code == 0
            lines = out.splitlines()
            assert f"verdict            {verdict}" in lines
            assert "QTER               0.0000 (below the 0.225 noise bound)" in lines
            assert machine_block(out)["secure"] == str(int(verdict == "SECURE"))

    def test_eve_flag_breaks_security(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", "--rounds", "100000",
                               "--seed", "4", "--eve", "--out", str(tmp_path / "e"))
        assert code == 0
        values = machine_block(out)
        assert values["secure"] == "0"
        assert float(values["s3_estimate"]) < 2.0 + 3 * float(values["s3_sigma"])

    def test_reference_profile(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", "--profile", "reference",
                               "--rounds", "400000", "--seed", "6",
                               "--out", str(tmp_path / "r"))
        assert code == 0
        values = machine_block(out)
        assert float(values["s3_estimate"]) == pytest.approx(2.688, abs=0.1)
        assert float(values["qter"]) == pytest.approx(0.093, abs=0.01)
        assert float(values["sigmas_above_classical"]) >= 4.0

    def test_config_file_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rounds = 5000\nseed = 2   # seed comment\nvisibility = 0.8\n")
        out_dir = tmp_path / "c"
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--seed", "5", "--out", str(out_dir))
        assert code == 0
        assert "visibility = 0.8" in out
        assert "seed = 5" in out          # flag overrides the file
        assert "rounds = 5000" in out

    @pytest.mark.parametrize("command", ["simulate", "bell", "optimize"])
    def test_negative_seed_rejected(self, capsys, tmp_path, command):
        extra = ("--out", str(tmp_path / "s")) if command == "simulate" else ()
        code, _, err = run_cli(capsys, command, "--seed", "-1", *extra)
        assert code == 2
        assert "seed" in err and "Traceback" not in err

    def test_nan_bias_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--bias", "nan,nan,nan",
                               "--rounds", "100", "--out", str(tmp_path / "b"))
        assert code == 2
        assert "setting probabilities" in err

    @pytest.mark.parametrize("text, rounds", [("2.5e4", 25000), ("2e4", 20000),
                                              ("20000", 20000)])
    def test_rounds_in_scientific_notation(self, capsys, tmp_path, text, rounds):
        out_dir = tmp_path / "n"
        code, out, _ = run_cli(capsys, "simulate", "--rounds", text, "--seed", "1",
                               "--out", str(out_dir))
        assert code == 0
        assert machine_block(out)["n_rounds"] == str(rounds)
        assert f"# rounds = {rounds}\n" in (out_dir / "transcript.txt").read_text()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"rounds = {text}\n")
        code, out2, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--seed", "1",
                                "--out", str(out_dir))
        assert code == 0
        assert machine_block(out2) == machine_block(out)

    def test_rounds_parser_returns_int(self):
        assert _parse_rounds("1e6") == 1_000_000 and type(_parse_rounds("1e6")) is int
        assert _parse_rounds("2.5e5") == 250_000 and type(_parse_rounds("2.5e5")) is int

    @pytest.mark.parametrize("text", ["1.5", "nan", "inf", "-1e3", "0", "ten",
                                      "1e19", "1e1000000"])
    def test_bad_rounds_rejected(self, capsys, tmp_path, text):
        # round ids have at most 18 digits; the parser alone rejects more
        with pytest.raises(ValidationError, match="rounds"):
            _parse_rounds(text)
        code, out, err = run_cli(capsys, "simulate", f"--rounds={text}",
                                 "--out", str(tmp_path / "x"))
        assert code == 2
        assert "rounds" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"seed = 1\nrounds = {text}\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                               "--out", str(tmp_path / "x"))
        assert code == 2
        assert err.startswith(f"error: {cfg}:2: bad value for rounds")

    def test_insufficient_data_keeps_transcript(self, capsys, tmp_path):
        out_dir = tmp_path / "few"
        code, out, err = run_cli(capsys, "simulate", "--rounds", "3", "--seed", "1",
                                 "--out", str(out_dir))
        assert code == 4
        assert out == ""
        assert (out_dir / "transcript.txt").exists()
        assert not (out_dir / "key_a.txt").exists()

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_config_byte_order_mark_dropped(self, capsys, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(b"rounds = 500\nseed = 4\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        runs = [run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
                for cfg in (plain, marked)]
        assert runs[0][0] == 0 and "rounds = 500" in runs[0][1]
        assert runs[1] == runs[0]

    def test_repeated_config_key_is_validation_error(self, capsys, tmp_path):
        # a header's repeated key is refused the same way
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("seed = 1\nvisibility = 0.9\nseed = 2\n")
        code, out, err = run_cli(capsys, "bell", "--config", str(cfg))
        assert (code, out, err) == (
            2, "", f"error: {cfg}:3: config key 'seed' repeated (first at line 1)\n")

    @pytest.mark.parametrize("command", ["bell", "simulate"])
    def test_non_utf8_config_is_validation_error(self, capsys, tmp_path, monkeypatch,
                                                 command):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        assert err.startswith(f"error: {cfg}:2: not UTF-8 text")
        assert "Traceback" not in err and out == ""

    def test_non_utf8_transcript_header_is_validation_error(self, capsys, tmp_path):
        sim_dir = tmp_path / "sim"
        assert run_cli(capsys, "simulate", "--rounds", "2000", "--out", str(sim_dir))[0] == 0
        path = sim_dir / "transcript.txt"
        path.write_bytes(b"# note = \xff\xfe\n" + path.read_bytes())
        code, out, err = run_cli(capsys, "sift", "--transcript", str(path))
        assert code == 2
        assert err.startswith(f"error: {path}:1: not UTF-8 text (byte 0xff at column 10)")
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("command", ["simulate", "bell"])
    @pytest.mark.parametrize("line", ["seed = -1", "visibility = 1.5", "eve_arm = C",
                                      "bias = 0.5,0.5,0.5", "coefficients = 0,0,0"])
    def test_out_of_range_config_value_names_line(self, capsys, tmp_path, monkeypatch,
                                                  command, line):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"rounds = 100\n{line}\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        key = line.split(" ")[0]
        assert err.startswith(f"error: {cfg}:2: bad value for {key}: ")
        assert "Traceback" not in err and out == ""

    def test_missing_transcript_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sift", "--transcript",
                               str(tmp_path / "missing.txt"))
        assert code == 3

    def test_insufficient_bell_data(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0 3 0 3 0 1\n1 3 1 3 2 1\n")
        code, _, err = run_cli(capsys, "sift", "--transcript", str(path))
        assert code == 4

    def test_header_only_transcript_has_no_rounds(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# seed = 1\n")
        code, _, err = run_cli(capsys, "sift", "--transcript", str(path))
        assert code == 4
        assert "no rounds" in err

    @pytest.mark.parametrize("row", ["1 1 - 1 0 1", "1 9 7 1 0 1", "0 1 0 1 0 1"])
    def test_malformed_transcript_is_validation_error(self, capsys, tmp_path, row):
        path = tmp_path / "t.txt"
        path.write_text(f"0 1 0 1 0 1\n{row}\n")
        code, out, err = run_cli(capsys, "sift", "--transcript", str(path))
        assert code == 2
        assert err.startswith(f"error: {path}:2: ")
        assert "Traceback" not in err and out == ""

    def test_repeated_header_key_is_validation_error(self, capsys, tmp_path):
        """A header key given twice, and a transcript joined from two
        sessions, whose second header follows the first session's rounds."""
        path = tmp_path / "t.txt"
        for text, message in (
                ("# seed = 1\n# rounds = 1\n# seed = 2\n0 1 0 1 0 1\n",
                 "header key 'seed' repeated (first at line 1)"),
                ("# seed = 1\n0 1 0 1 0 1\n# seed = 2\n0 1 0 1 0 1\n",
                 "'#' line after the first round: header lines come first")):
            path.write_text(text)
            code, out, err = run_cli(capsys, "sift", "--transcript", str(path))
            assert code == 2
            assert err == f"error: {path}:3: {message}\n"
            assert out == ""


@pytest.mark.parametrize("argv, field", [
    (("simulate", "--visibility", "1.4", "--rounds", "100"), "visibility"),
    (("simulate", "--bias", "0.5,0.5,0.5", "--rounds", "100"), "setting probabilities"),
    (("simulate", "--detection", "0", "--rounds", "100"), "detection"),
    (("simulate", "--seed", "-1", "--rounds", "100"), "seed"),
    (("bell", "--tolerance", "nan"), "tolerance"),
    (("optimize", "--restarts", "0"), "restarts"),
    (("bell", "--tolerance", "1e300"), "tolerance"),
    (("bell", "--coefficients", "1,1"), "bad value for coefficients"),
    (("optimize", "--restarts", "x"), "--restarts"),
    (("bell", "--tolerance", "abc"), "--tolerance"),
    (("simulate", "--eve-arm", "C"), "--eve-arm"),
])
def test_input_error_prints_nothing(capsys, tmp_path, argv, field):
    """A command whose inputs fail validation writes nothing to stdout."""
    extra = ("--out", str(tmp_path / "o")) if argv[0] == "simulate" else ()
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 2
    assert out == ""
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [(), ("simulate",), ("sift",)])
def test_help_exits_zero(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--help")
    assert code == 0
    assert out.startswith("usage: qutrit-qkd") and err == ""


# a value off its default for each config key: the flag's arguments and the
# config-file value
KEY_VALUES = {
    "rounds": (("--rounds", "30000"), "30000"),
    "seed": (("--seed", "12"), "12"),
    "coefficients": (("--coefficients", "1,0.9,0.8"), "1,0.9,0.8"),
    "visibility": (("--visibility", "0.95"), "0.95"),
    "background": (("--background", "0.05"), "0.05"),
    "detection": (("--detection", "0.7"), "0.7"),
    "key_crosstalk": (("--key-crosstalk", "0.01"), "0.01"),
    "eve": (("--eve",), "true"),
    "eve_arm": (("--eve-arm", "A"), "A"),
    "bias": (("--bias", "0.2,0.2,0.6"), "0.2,0.2,0.6"),
}
SHARED_OPTIONS = {"--help", "--config", "--seed", "--coefficients", "--visibility",
                  "--background"}


@pytest.mark.parametrize("command, options", [
    ("bell", SHARED_OPTIONS | {"--family", "--tolerance"}),
    ("optimize", SHARED_OPTIONS | {"--family", "--tolerance", "--restarts"}),
    ("simulate", SHARED_OPTIONS | {"--rounds", "--detection", "--key-crosstalk", "--eve",
                                   "--eve-arm", "--bias", "--profile", "--out"}),
])
def test_config_command_options(capsys, tmp_path, command, options):
    """Each config command takes exactly its options, and each key's flag
    gives the value its config-file line gives."""
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", out.split("\noptions:\n", 1)[1], re.M)
    assert sorted(listed) == sorted(options)
    parser = cli.build_parser()
    keys = [key for key, (flag_args, _) in KEY_VALUES.items() if flag_args[0] in options]
    assert len(keys) == (10 if command == "simulate" else 4)
    for key in keys:
        flag_args, value = KEY_VALUES[key]
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = {value}\n")
        by_flag, _ = cli.resolve_config(parser.parse_args([command, *flag_args]))
        by_file, _ = cli.resolve_config(parser.parse_args([command, "--config", str(cfg)]))
        assert by_flag == by_file != cli.RunConfig()


def test_unusable_out_dir_prints_nothing(capsys, tmp_path):
    """An --out path that cannot be a directory exits 3 before any stdout."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_cli(capsys, "simulate", "--rounds", "2000", "--out", str(blocker))
    assert (code, out) == (3, "")
    assert "Traceback" not in err

    run_dir = tmp_path / "run"
    assert run_cli(capsys, "simulate", "--rounds", "2000", "--out", str(run_dir))[0] == 0
    code, out, err = run_cli(capsys, "sift", "--transcript", str(run_dir / "transcript.txt"),
                             "--out", str(blocker))
    assert (code, out) == (3, "")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "sift"])
def test_late_failure_prints_nothing(capsys, tmp_path, command):
    """A command whose ``key_a.txt`` under --out is a directory exits 3 and
    prints no report."""
    sim_dir, out_dir = tmp_path / "sim", tmp_path / "out"
    assert run_cli(capsys, "simulate", "--rounds", "20000", "--out", str(sim_dir))[0] == 0
    (out_dir / "key_a.txt").mkdir(parents=True)
    argv = (("simulate", "--rounds", "20000") if command == "simulate"
            else ("sift", "--transcript", str(sim_dir / "transcript.txt")))
    code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
    assert (code, out) == (3, "")
    assert "key_a.txt" in err and "Traceback" not in err


@pytest.mark.parametrize("command, target", [
    ("simulate", "transcript.txt"), ("simulate", "key_b.txt"),
    ("sift", "key_b.txt"), ("reconcile", "reconciled_b.txt"),
])
def test_out_target_checked_before_any_write(capsys, tmp_path, command, target):
    """An output file under --out that exists and is not a regular file
    exits 3 with an empty stdout, before any other output file is made."""
    sim_dir, out_dir = tmp_path / "sim", tmp_path / "out"
    assert run_cli(capsys, "simulate", "--rounds", "2000", "--out", str(sim_dir))[0] == 0
    (out_dir / target).mkdir(parents=True)
    argv = {"simulate": ("simulate", "--rounds", "2000"),
            "sift": ("sift", "--transcript", str(sim_dir / "transcript.txt")),
            "reconcile": ("reconcile", str(sim_dir / "key_a.txt"), str(sim_dir / "key_b.txt")),
            }[command]
    code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
    assert (code, out) == (3, "")
    assert target in err and "Traceback" not in err
    assert os.listdir(out_dir) == [target]


@pytest.mark.parametrize("case, exit_code", [
    ("reconcile missing keys", 3), ("reconcile bad key", 2),
    ("sift missing transcript", 3), ("sift bad transcript", 2),
])
def test_failed_command_makes_no_out_dir(capsys, tmp_path, case, exit_code):
    """A command that fails on its inputs leaves no --out directory behind."""
    bad_key, bad_transcript = tmp_path / "bad_key.txt", tmp_path / "bad.txt"
    bad_key.write_text("0120\n0135\n")
    bad_transcript.write_text("0 1 0 1 0 1\n1 9 7 1 0 1\n")
    missing = str(tmp_path / "missing.txt")
    argv = {"reconcile missing keys": ("reconcile", missing, missing),
            "reconcile bad key": ("reconcile", str(bad_key), str(bad_key)),
            "sift missing transcript": ("sift", "--transcript", missing),
            "sift bad transcript": ("sift", "--transcript", str(bad_transcript)),
            }[case]
    out_dir = tmp_path / "new" / "out"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_dir))
    assert (code, out) == (exit_code, "")
    assert "Traceback" not in err
    assert not (tmp_path / "new").exists()


def test_simulate_refuses_a_transcript_the_disk_cannot_hold(capsys, tmp_path, monkeypatch):
    """The transcript's size is known before the first write: one larger than
    the free space of the nearest existing parent of --out, plus the bytes of
    the transcript it replaces, exits 3, naming both numbers, and makes
    nothing; one of exactly that size is written."""
    free, asked = [], []

    def disk_usage(path):
        asked.append(path)
        return shutil._ntuple_diskusage(10 ** 12, 10 ** 12 - free[-1], free[-1])

    def transcribe(path, chunks, header):
        # the writer would fill the disk on a session the check let through
        assert free[-1] < 10 ** 6, "a session too large to write reached the writer"
        return real_transcribe(path, chunks, header)

    real_transcribe = transcript.transcribe
    monkeypatch.setattr(shutil, "disk_usage", disk_usage)
    monkeypatch.setattr(transcript, "transcribe", transcribe)
    out_dir = tmp_path / "new" / "out"

    def simulate(rounds, room):
        """Run ``simulate`` with ``room`` bytes free past its transcript's size."""
        config = cli.RunConfig(rounds=_parse_rounds(rounds))
        size = transcript.transcript_size(config.rounds, {
            name: cli._config_value(value) for name, value in vars(config).items()})
        free.append(size + room)
        return size, run_cli(capsys, "simulate", "--rounds", rounds, "--out", str(out_dir))

    for rounds in ("1e18", "1000"):
        size, (code, out, err) = simulate(rounds, -1)
        assert (code, out) == (3, "")
        assert err == (f"error: [Errno 28] No space left on device: the transcript needs "
                       f"{size} bytes, {size - 1} are free: '{tmp_path}'\n")
        assert asked[-1] == str(tmp_path) and not (tmp_path / "new").exists()
    size, (code, _, err) = simulate("1000", 0)
    assert (code, err) == (0, "") and os.path.getsize(out_dir / "transcript.txt") == size
    # opening the new transcript truncates the one there
    replaced = size
    size, (code, _, err) = simulate("2000", -replaced)
    assert (code, err) == (0, "") and asked[-1] == str(out_dir)
    _, (code, _, err) = simulate("3000", -size - 1)
    assert code == 3 and err.endswith(f" bytes, {free[-1] + size} are free: '{out_dir}'\n")


@pytest.mark.parametrize("keep, rounds_line, exit_code", [
    (10_001, None, 2), (19_999, None, 2), (20_000, None, 0),
    (10_001, b"# rounds = many\n", 0), (5, None, 2), (0, None, 2),
])
def test_sift_checks_the_header_rounds(capsys, tmp_path, keep, rounds_line, exit_code):
    """A transcript cut short of its header's ``rounds`` (as a ``simulate``
    that fails mid-write leaves it) exits 2, naming the path and both
    counts, and writes no key file, also when too few rounds are left for
    an estimate (5 rows lack some setting pair, 0 rows are no rounds); a
    ``rounds`` that does not parse is not checked."""
    sim_dir, out_dir = tmp_path / "sim", tmp_path / "out"
    assert run_cli(capsys, "simulate", "--rounds", "20000", "--out", str(sim_dir))[0] == 0
    path = sim_dir / "transcript.txt"
    lines = path.read_bytes().splitlines(keepends=True)
    header = [rounds_line if rounds_line and line.startswith(b"# rounds =") else line
              for line in lines if line.startswith(b"#")]
    path.write_bytes(b"".join(header + lines[len(header):len(header) + keep]))
    code, out, err = run_cli(capsys, "sift", "--transcript", str(path), "--out", str(out_dir))
    assert code == exit_code and "Traceback" not in err
    if exit_code:
        assert out == ""
        assert f"{path}: the header says rounds = 20000, but the file holds {keep} rounds" in err
        assert not out_dir.exists()
    else:
        assert f"rounds             {keep} " in out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def machine_text(out):
    """The machine block's lines as text, without the lines naming output paths."""
    lines = out.splitlines(keepends=True)
    block = lines[lines.index("-- machine readable --\n"):]
    return "".join(line for line in block
                   if line.split(" ")[0] not in ("transcript", "key_a", "key_b"))


def stdout_text(out, tmp_path):
    """The whole of stdout without the lines naming paths under ``tmp_path``."""
    return "".join(line for line in out.splitlines(keepends=True) if str(tmp_path) not in line)


class TestGoldenOutput:
    """Byte-level pins of ``simulate``, ``bell`` and ``optimize`` stdout and of
    the ``simulate`` files; ``sift --out`` must reproduce the key files."""

    FILES = ("transcript.txt", "key_a.txt", "key_b.txt")

    @pytest.mark.parametrize("argv, digests", [
        (("--profile", "reference", "--detection", "1", "--rounds", "20000", "--seed", "7"),
         ("7a3247f5aafc499636037e285eb9754723015477dacc623a9973450b213da5de",
          "2013368a4ba8fb19c0df5d3cbc02d2f213e488057a6c49bb79e5864321cb7fb6",
          "142237dc88b3406c4b636e372f78b45ea73ab00cbc8b00e8c099581f9242c52f",
          "0f6f974f8354bdc531a4af7cec6486f868075bb830cc06b8a90aada3d86e18dc",
          "b3541a6e1051ef65f2fe1b6e1db36ada1782b1eceb48952c24112d81903d5fa1")),
        (("--eve", "--visibility", "0.9", "--background", "0.1", "--rounds", "20000",
          "--seed", "4"),
         ("2e19e6d91d2ce899e4999b243a0ef082ebef213a96183bce157b2fd658a8b184",
          "cfcf64f54ba9853fd11e50f80c70735ae44943d54199be564b47003c837ff518",
          "08cc27422f9127d500bfbbfc229e8cbfda14e32355ac16dec10b3cea4b2f069e",
          "ed86335306232a3ac81271d026f538021f2c9c9397dbe19ca6463b7b25ee535f",
          "e78c20cff268c2cba1b413a6228753da1e6181978c8d2474a9d00aab24524156")),
        # 70000 rounds cross the 65536-round chunk boundary
        (("--detection", "0.3", "--bias", "0.2,0.2,0.6", "--rounds", "70000", "--seed", "11"),
         ("0ea2eb0700b8f44f0f3558c7ae1dacaa4b41027d88d4a2278cae48f418ccb0d4",
          "ec77fb2ce967ef101db00e13d9202654c6b1b0f52e4535c24f3966c68d653607",
          "d589a82d3742c2082d04583a6d38311b36bf11fb8678e75b208dd6c12f8224dc",
          "77de01b02725739d9c57d0535e63e1ba801dac1f2beaac9a7738e5ad74f83187",
          "1f5c2e88961ec5f317f7fb9dcce0b148d2cd0fee2007e71ae2e4f4c8bfbc8861")),
    ])
    def test_simulate_and_sift_bytes(self, capsys, tmp_path, argv, digests):
        sim_dir, sift_dir = tmp_path / "sim", tmp_path / "sift"
        code, out, _ = run_cli(capsys, "simulate", *argv, "--out", str(sim_dir))
        assert code == 0
        files = [(sim_dir / name).read_bytes() for name in self.FILES]
        assert tuple(sha256(data) for data in files) == digests[:3]
        assert sha256(machine_text(out).encode()) == digests[3]
        assert sha256(stdout_text(out, tmp_path).encode()) == digests[4]

        code, out2, _ = run_cli(capsys, "sift", "--transcript", str(sim_dir / "transcript.txt"),
                                "--out", str(sift_dir))
        assert code == 0
        assert machine_text(out2) == machine_text(out)
        assert [(sift_dir / name).read_bytes() for name in self.FILES[1:]] == files[1:]

    @pytest.mark.parametrize("argv, digest", [
        (("bell", "--coefficients", "0.642,0.546,0.539"),
         "444a9b926d7e666a4b750cb820589179d5047d4ed259406a49f0830eda9fba48"),
        (("optimize", "--restarts", "6", "--seed", "1"),
         "dfd1501045a6fc272694c32751484aacc7ddec1151b8547767e7222aa31ada11"),
        (("optimize", "--family", "unitary", "--restarts", "1", "--tolerance", "1e-2",
          "--seed", "3"),
         "fbfec456e1653bd9330ceb28bca1d74953e04ecdd114360515de0107a407f139"),
    ])
    def test_bell_and_optimize_stdout(self, capsys, tmp_path, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert sha256(stdout_text(out, tmp_path).encode()) == digest


class TestPinnedReports:
    """Byte-level pins of the stdout of every other command and report branch,
    without the lines naming paths under ``tmp_path``."""

    def stdout_digest(self, capsys, tmp_path, *argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        return out, sha256(stdout_text(out, tmp_path).encode())

    SIFT_DIGESTS = {
        (True, True): "955406c24f41bca6503232789339672e67d4316eaa628d9d91ddd82a7fa24425",
        (False, False): "bd2cbe27d4edc49f7bc25eba23255bcc658d3b54252dcc1e3596f89a4c43fc7a",
    }

    @pytest.mark.parametrize("header, keys", list(SIFT_DIGESTS))
    def test_sift_stdout(self, capsys, tmp_path, header, keys):
        sim_dir = tmp_path / "sim"
        assert run_cli(capsys, "simulate", "--rounds", "20000", "--seed", "5",
                       "--out", str(sim_dir))[0] == 0
        path = sim_dir / "transcript.txt"
        if not header:
            rows = path.read_bytes().splitlines(keepends=True)
            path.write_bytes(b"".join(row for row in rows if not row.startswith(b"#")))
        out_args = ("--out", str(tmp_path / "keys")) if keys else ()
        out, got = self.stdout_digest(capsys, tmp_path, "sift", "--transcript", str(path),
                                      *out_args)
        assert ("transcript header:" in out) == header
        assert got == self.SIFT_DIGESTS[header, keys]

    @pytest.mark.parametrize("length, digest", [
        (151, "e555785e5e6d8997faa2d5e8d3df23fe9603733845533d478d97bd773735ea74"),
        (150, "bd1e6abf636c894e4ef94dc063fef173bdb88aab4da3d1b57ea42fa657b0ca9a"),
    ])
    def test_reconcile_stdout(self, capsys, tmp_path, length, digest):
        rng = np.random.default_rng(2)
        key_a = rng.integers(0, 3, size=length)
        key_b = np.where(rng.random(length) < 0.1, (key_a + 1) % 3, key_a)
        file_a, file_b = tmp_path / "a.txt", tmp_path / "b.txt"
        file_a.write_text("".join(map(str, key_a)) + "\n")
        file_b.write_text("".join(map(str, key_b)) + "\n")
        out, got = self.stdout_digest(capsys, tmp_path, "reconcile", str(file_a), str(file_b),
                                      "--out", str(tmp_path / "rec"))
        assert ("dropped trailing" in out) == bool(length % 3)
        assert got == digest

    @pytest.mark.parametrize("argv, digest", [
        (("encrypt", "THE RESULT IS FORTY TWO"),
         "8a28ecc7a495bc399e8443db60c54da0d2ffe7fc1edbeaec2d8d030ad66e3be5"),
        (("decrypt", TABLE_CIPHER),
         "053f5ae411f16e2b873bae04bc74ad55df1bb6dcb2a50c183e87564bb4a64e91"),
    ])
    def test_cipher_stdout(self, capsys, tmp_path, argv, digest):
        key_file = tmp_path / "key.txt"
        key_file.write_text(TABLE_KEY + "012" * 3 + "\n")
        _, got = self.stdout_digest(capsys, tmp_path, *argv, "--key-file", str(key_file))
        assert got == digest

    def test_qter_above_noise_bound_stdout(self, capsys, tmp_path):
        out, got = self.stdout_digest(capsys, tmp_path, "simulate", "--key-crosstalk", "0.6",
                                      "--rounds", "20000", "--seed", "1",
                                      "--out", str(tmp_path / "x"))
        assert "(ABOVE the 0.225 noise bound)" in out
        assert got == "767cc40e26317a99bdf96a166f261679cb8d596a64e1df34c9aeaaaa9998e998"

    @pytest.mark.parametrize("argv, digest", [
        (("bell",), "492b7131933458cb002d7eb5cc18370e927ffe9a11c6dc0c4d5e8eedce911221"),
        (("optimize", "--restarts", "2"),
         "ea7137240de87afa642d98bc5a1d670d8bca625c2456a55833807cd9018796a8"),
    ])
    def test_not_converged_stdout(self, capsys, tmp_path, monkeypatch, argv, digest):
        solve = bell.optimize_s3
        monkeypatch.setattr(bell, "optimize_s3", lambda *args, **kwargs: dataclasses.replace(
            solve(*args, **kwargs), converged=False))
        out, got = self.stdout_digest(capsys, tmp_path, *argv)
        assert "  [not converged]" in out
        assert machine_block(out)["optimizer_converged"] == "0"
        assert got == digest


class TestReconcileCommand:
    def test_reference_arithmetic(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        key_a = rng.integers(0, 3, size=150)
        key_b = key_a.copy()
        for blk in rng.choice(50, size=14, replace=False):
            pos = 3 * blk + rng.integers(0, 3)
            key_b[pos] = (key_b[pos] + rng.integers(1, 3)) % 3
        file_a, file_b = tmp_path / "a.txt", tmp_path / "b.txt"
        file_a.write_text("".join(map(str, key_a)) + "\n")
        file_b.write_text("".join(map(str, key_b)) + "\n")
        code, out, _ = run_cli(capsys, "reconcile", str(file_a), str(file_b),
                               "--out", str(tmp_path))
        assert code == 0
        values = machine_block(out)
        assert values["output_length"] == "72"
        assert values["kept_blocks"] == "36"
        out_a = read_key_file(tmp_path / "reconciled_a.txt")
        out_b = read_key_file(tmp_path / "reconciled_b.txt")
        assert np.array_equal(out_a, out_b)

    def test_identical_keys(self, capsys, tmp_path):
        for name in ("a.txt", "b.txt"):
            (tmp_path / name).write_text("012012012\n")
        code, out, _ = run_cli(capsys, "reconcile", str(tmp_path / "a.txt"),
                               str(tmp_path / "b.txt"), "--out", str(tmp_path))
        assert code == 0
        assert machine_block(out)["kept_blocks"] == "3"

    def test_length_mismatch(self, capsys, tmp_path):
        (tmp_path / "a.txt").write_text("012\n")
        (tmp_path / "b.txt").write_text("0120\n")
        code, _, err = run_cli(capsys, "reconcile", str(tmp_path / "a.txt"),
                               str(tmp_path / "b.txt"), "--out", str(tmp_path))
        assert code == 2
        assert "mismatch" in err


class TestCipherCommands:
    def test_encrypt_reference_message(self, capsys, tmp_path):
        key_file = tmp_path / "key.txt"
        key_file.write_text(TABLE_KEY + "\n")
        code, out, _ = run_cli(capsys, "encrypt", "THE RESULT IS FORTY TWO",
                               "--key-file", str(key_file))
        assert code == 0
        assert machine_block(out)["cipher"] == TABLE_CIPHER

    def test_decrypt_reference_cipher(self, capsys, tmp_path):
        key_file = tmp_path / "key.txt"
        key_file.write_text(TABLE_KEY + "\n")
        code, out, _ = run_cli(capsys, "decrypt", TABLE_CIPHER,
                               "--key-file", str(key_file))
        assert code == 0
        assert machine_block(out)["text"] == "THE RESULT IS FORTY TWO"

    def test_short_key_refused(self, capsys, tmp_path):
        key_file = tmp_path / "key.txt"
        key_file.write_text("012\n")
        code, _, err = run_cli(capsys, "encrypt", "HELLO WORLD",
                               "--key-file", str(key_file))
        assert code == 2
        assert "key too short" in err

    @pytest.mark.parametrize("text, typed", [
        ("straße", "ß"), ("ı", "ı"), ("ſ", "ſ"), ("ﬁ", "ﬁ"), ("café", "é"),
    ], ids=["sharp-s", "dotless-i", "long-s", "fi-ligature", "e-acute"])
    def test_non_ascii_letters_refused(self, capsys, tmp_path, text, typed):
        """Only ASCII a-z fold to capitals; other letters are named as typed."""
        key_file = tmp_path / "key.txt"
        key_file.write_text(TABLE_KEY + "\n")
        code, out, err = run_cli(capsys, "encrypt", text, "--key-file", str(key_file))
        assert (code, out) == (2, "")
        assert f"character {typed!r} outside" in err

    def test_bad_trit_character_named(self, capsys, tmp_path):
        key_file = tmp_path / "key.txt"
        key_file.write_text(TABLE_KEY + "\n")
        code, out, err = run_cli(capsys, "decrypt", "015", "--key-file", str(key_file))
        assert (code, out, err) == (2, "", "error: invalid trit character '5'\n")

    def test_unused_tail_reported(self, capsys, tmp_path):
        key_file = tmp_path / "key.txt"
        key_file.write_text("012201" + "0" * 10 + "\n")
        code, out, _ = run_cli(capsys, "encrypt", "HI", "--key-file", str(key_file))
        assert code == 0
        assert machine_block(out)["unused_key_trits"] == "10"


# Run in a fresh interpreter: sys.argv[1] is a JSON list of CLI argument
# lists.  The last line of stdout is JSON: the scipy modules loaded.
FRESH_CLI = """
import json, sys
from qutrit_qkd import cli

for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


# Run in a fresh interpreter where importing scipy raises ImportError:
# sys.argv[1] is a JSON list of CLI argument lists, run before the library
# solves.  The last line of stdout is JSON: whether each library solve
# converged.
SCIPY_BLOCKED = """
import json, sys
sys.modules["scipy"] = None
from qutrit_qkd import bell, cli
from qutrit_qkd.linalg import diagonal_state

for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
state = diagonal_state((1.0, 1.0, 1.0))
solves = [bell.optimize_s3(state, restarts=2),
          bell.optimize_s3(state, family="unitary", restarts=2),
          bell.optimize_gamma_family(restarts=2)]
print(json.dumps([solve.converged for solve in solves]))
"""


# Run in a fresh interpreter: sys.argv[1] is a JSON list of CLI argument
# lists, run in turn by one ``cli.main``.  Stdout is JSON: each call's
# [exit code, stdout, stderr].
CAPTURED_CLI = """
import contextlib, io, json, sys
from qutrit_qkd import cli

calls = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    calls.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(calls))
"""


# Run in a fresh interpreter: sys.argv[1] is a JSON list of CLI argument
# lists, each run by ``python -m qutrit_qkd.cli`` in a process of its own
# whose stdout is a pipe with its read end already closed.  Stdout is JSON:
# each run's [exit code, stderr].
CLOSED_PIPE_CLI = """
import json, os, subprocess, sys

runs = []
for argv in json.loads(sys.argv[1]):
    read, write = os.pipe()
    os.close(read)
    proc = subprocess.run([sys.executable, "-m", "qutrit_qkd.cli", *argv], stdout=write,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    os.close(write)
    runs.append([proc.returncode, proc.stderr])
print(json.dumps(runs))
"""


# Run in a fresh interpreter: as CLOSED_PIPE_CLI, but each run starts with
# its fd 1 closed, so its ``sys.stdout`` is None.
CLOSED_STDOUT_CLI = """
import json, os, subprocess, sys

runs = []
for argv in json.loads(sys.argv[1]):
    proc = subprocess.run([sys.executable, "-m", "qutrit_qkd.cli", *argv],
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
                          text=True, timeout=120)
    runs.append([proc.returncode, proc.stderr])
print(json.dumps(runs))
"""


def fresh_python(script, commands):
    """Run ``script`` on ``commands`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    src = str(Path(qutrit_qkd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def fresh_cli(commands):
    return fresh_python(FRESH_CLI, commands)


def test_parser_keeps_no_state_between_calls(tmp_path):
    """``main`` reuses one parser per process: each call in a run of calls
    prints and returns what it does as the first call of a fresh process."""
    out = str(tmp_path / "run")
    calls = [
        ["simulate", "--eve", "--rounds", "3000", "--no-such-flag"],
        ["--help"],
        ["simulate", "--eve", "--eve-arm", "A", "--rounds", "3000", "--seed", "5",
         "--out", out],
        ["simulate", "--rounds", "3000", "--seed", "5", "--out", out],
        ["sift", "--transcript", os.path.join(out, "transcript.txt")],
    ]
    together = fresh_python(CAPTURED_CLI, calls)
    assert [code for code, _, _ in together] == [2, 0, 0, 0, 0]
    assert "eve = True" in together[2][1] and "eve = False" in together[3][1]
    assert together == [fresh_python(CAPTURED_CLI, [argv])[0] for argv in calls]


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    """A stdout pipe whose reader has gone before the report is written ends
    the command with exit 3 and no traceback, also from the interpreter's
    final flush."""
    runs = fresh_python(CLOSED_PIPE_CLI, [
        ["bell"], ["simulate", "--rounds", "3000", "--out", str(tmp_path)]])
    assert runs == [[3, ""], [3, ""]]


def test_closed_stdout_exits_with_one_error_line(tmp_path):
    """A run started with fd 1 closed has no stdout to write its report to:
    exit 3 and one error line, no traceback."""
    key = tmp_path / "key.txt"
    key.write_text(TABLE_KEY + "\n")
    runs = fresh_python(CLOSED_STDOUT_CLI, [["bell"], ["encrypt", "HI", "--key-file", str(key)]])
    assert runs == [[3, "error: cannot write the report: [Errno 9] stdout is closed\n"]] * 2


class FullStdout(io.StringIO):
    """A stdout on a full disk: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_full_stdout_exits_with_one_error_line(capsys, tmp_path):
    key = tmp_path / "key.txt"
    key.write_text(TABLE_KEY + "\n")
    with contextlib.redirect_stdout(FullStdout()):
        code = main(["encrypt", "HI", "--key-file", str(key)])
    assert (code, capsys.readouterr().err) == (
        3, "error: cannot write the report: [Errno 28] No space left on device\n")


class TestColdStart:
    def test_key_commands_never_load_scipy(self, tmp_path):
        out = str(tmp_path)
        table_key = tmp_path / "table_key.txt"
        table_key.write_text(TABLE_KEY + "\n")
        loaded = fresh_cli([
            ["simulate", "--rounds", "20000", "--seed", "3", "--out", out],
            ["sift", "--transcript", str(tmp_path / "transcript.txt")],
            ["reconcile", str(tmp_path / "key_a.txt"), str(tmp_path / "key_b.txt"),
             "--out", out],
            ["encrypt", "HELLO", "--key-file", str(tmp_path / "reconciled_a.txt")],
            ["decrypt", TABLE_CIPHER, "--key-file", str(table_key)],
        ])
        assert loaded == []

    def test_solves_never_load_scipy(self):
        loaded = fresh_cli([["bell"], ["optimize", "--family", "phase", "--restarts", "2"],
                            ["optimize", "--family", "unitary", "--restarts", "1"]])
        assert loaded == []

    def test_solves_run_where_scipy_cannot_be_imported(self):
        converged = fresh_python(SCIPY_BLOCKED, [
            ["bell", "--coefficients", "0.642,0.546,0.539"],
            ["optimize", "--family", "unitary", "--restarts", "1"]])
        assert converged == [True, True, True]
