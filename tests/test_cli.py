import numpy as np
import pytest

from qutrit_qkd import bell
from qutrit_qkd.cli import _parse_rounds, main
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

    @pytest.mark.parametrize("text", ["1.5", "nan", "inf", "-1e3", "0", "ten"])
    def test_bad_rounds_rejected(self, capsys, tmp_path, text):
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
        code, _, err = run_cli(capsys, "simulate", "--rounds", "3", "--seed", "1",
                               "--out", str(out_dir))
        assert code == 4
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
