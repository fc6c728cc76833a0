import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qutrit_qkd
from qutrit_qkd import bell
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

    def test_measured_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--coefficients", "0.642,0.546,0.539")
        assert code == 0
        values = machine_block(out)
        assert float(values["s3_optimized"]) >= 2.80
        assert float(values["normalization_divisor"]) == pytest.approx(
            np.sqrt(1.000801), rel=1e-6)

    def test_validation_error_names_field(self, capsys):
        code, _, err = run_cli(capsys, "bell", "--visibility", "1.4")
        assert code == 2
        assert "visibility" in err


    def test_nan_tolerance_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bell", "--tolerance", "nan")
        assert code == 2
        assert "tolerance" in err


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


# coefficient triples whose squared norm overflows or underflows, and the
# ordinary triple each one normalizes to
EXTREME_COEFFICIENTS = [
    ("1e308,1e308,1e308", "1,1,1"),
    ("1e200,1e-200,0", "1,0,0"),
    ("1e-320,0,0", "1,0,0"),
]


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
        out_dir = str(tmp_path / "h")
        code, out1, _ = run_cli(capsys, "simulate", "--profile", "reference",
                                "--rounds", "20000", "--seed", "7", "--out", out_dir)
        assert code == 0
        header = [line[2:] for line in (tmp_path / "h" / "transcript.txt")
                  .read_text().splitlines() if line.startswith("# ")]
        assert "coefficients = 0.642,0.546,0.539" in header
        assert f"detection = {1 / 9!r}" in header
        cfg = tmp_path / "hdr.cfg"
        cfg.write_text("\n".join(header) + "\n")
        code, out2, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", out_dir)
        assert code == 0
        assert machine_block(out2) == machine_block(out1)

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
         ("263335f838d044765bec9d0addd26756397c25497743037e89471f1930576844",
          "d667d096fcf730789529501f94ab09a4d5a0aa615fc2dfa70b56b3683bb51314",
          "c4bc8b6c27afd65bd608f445c8ebd2068c38b93112f815d6e126208b9fee113a",
          "4b5a1785ba356e283a569ed4f52e6da8842195bfacdff2ec88b2ecc737fb79a8",
          "35be017b830ef741cc36b3077770329e14d1800da52eddb42a5732a5aab1d8c4")),
        (("--eve", "--visibility", "0.9", "--background", "0.1", "--rounds", "20000",
          "--seed", "4"),
         ("a9f22b13e55f0dc48e585047d39d278aace5fd3e19a576e4af3de71ff1815755",
          "ef994b7427d0187cf92401fb4ab67742d2a3982c39a11388eb8c639c7bb4959d",
          "2e1af58cde9092920ac1244bf78daaebc918013cd0ddbae774fd3230b0116643",
          "4325f059c14406d6056a5d17ed88af39408ff236bcea42c60a0debfabbe58dbb",
          "fb951a5ee228791ea6957e8c91198ff08b81ac3e17ff5492984265558028543a")),
        # 70000 rounds cross the 65536-round chunk boundary
        (("--detection", "0.3", "--bias", "0.2,0.2,0.6", "--rounds", "70000", "--seed", "11"),
         ("f81ee345e124a2b4fa55cd53a03a6fc168beda5884cd5689dca184abdbd209a8",
          "9f77c21cf3ec9d9b94d59b54d2f9181c7e20e6a6330526ae516dcff638a76a98",
          "0bd9578ece1a2448277c7e579c7ab71f7d4f9acae72bf9da82f50a7a13ebfc6a",
          "9106bd723251de038fd6fa460131c51e2f8aff9b1eb31f389f9f442d0440fdc9",
          "3641d3da262f8f9f1ca80a4e3fa935647451a770e8a7bf5c0a36e1c2a82b1734")),
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
         "bafd726e92a90738718d0a0e4bf8a25bd746f515947c75706e7c4061e36cbd96"),
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

    def test_unused_tail_reported(self, capsys, tmp_path):
        key_file = tmp_path / "key.txt"
        key_file.write_text("012201" + "0" * 10 + "\n")
        code, out, _ = run_cli(capsys, "encrypt", "HI", "--key-file", str(key_file))
        assert code == 0
        assert machine_block(out)["unused_key_trits"] == "10"


# Run in a fresh interpreter: sys.argv[1] is a JSON list of CLI argument
# lists.  The last line of stdout is JSON: the scipy modules loaded and
# OPENBLAS_NUM_THREADS.
FRESH_CLI = """
import json, os, sys
from qutrit_qkd import cli

for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
                  "threads": os.environ.get("OPENBLAS_NUM_THREADS")}))
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


def fresh_python(script, commands, **env_update):
    """Run ``script`` on ``commands`` in a fresh interpreter; its last stdout line as JSON."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(qutrit_qkd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_update)
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def fresh_cli(commands, **env_update):
    return fresh_python(FRESH_CLI, commands, **env_update)


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
        assert loaded["scipy"] == []

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_solve_loads_scipy_on_one_blas_thread(self, preset, expected):
        env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
        loaded = fresh_cli([["optimize", "--family", "phase", "--restarts", "1"]], **env)
        assert "scipy.optimize" in loaded["scipy"]
        assert loaded["threads"] == expected
