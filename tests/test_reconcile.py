import numpy as np
import pytest

from qutrit_qkd.linalg import ValidationError
from qutrit_qkd.reconcile import parity_sift
from qutrit_qkd.trits import read_key_file, write_key_file

from oracles import parity_block_survivors


class TestBlockParity:
    """``parity_sift`` keeps a block exactly when both mod-3 sums agree."""

    @pytest.mark.parametrize("block,expected", [
        ((0, 0, 0), 0),
        ((2, 0, 1), 0),
        ((0, 2, 2), 1),
        ((1, 1, 1), 0),
        ((2, 2, 2), 0),
    ])
    def test_examples(self, block, expected):
        kept = [parity_sift(block, (parity, 0, 0))[2].kept_blocks for parity in range(3)]
        assert kept.index(1) == expected and sum(kept) == 1


class TestParitySift:
    def test_identical_keys(self):
        out_a, out_b, report = parity_sift((1, 1, 1, 2, 2, 2), (1, 1, 1, 2, 2, 2))
        assert out_a.tolist() == [1, 1, 2, 2]
        assert out_b.tolist() == [1, 1, 2, 2]
        assert report.kept_blocks == 2
        assert report.discarded_blocks == 0
        assert report.residual_mismatches == 0

    def test_single_error_block_discarded(self):
        out_a, out_b, report = parity_sift((0, 0, 0), (0, 0, 1))
        assert out_a.size == 0 and out_b.size == 0
        assert report.kept_blocks == 0
        assert report.discarded_blocks == 1

    def test_matching_parity_with_different_trits_kept(self):
        out_a, out_b, report = parity_sift((0, 1, 2), (2, 1, 0))
        assert report.kept_blocks == 1
        assert out_a.tolist() == [0, 1]
        assert out_b.tolist() == [2, 1]
        assert report.residual_mismatches == 1

    def test_reference_scale_arithmetic(self):
        # 150 trits, 14 single-trit errors in 14 distinct blocks:
        # 50 blocks - 14 = 36 kept, 72 output trits, error-free
        rng = np.random.default_rng(0)
        key_a = rng.integers(0, 3, size=150, dtype=np.int8)
        key_b = key_a.copy()
        error_blocks = rng.choice(50, size=14, replace=False)
        for blk in error_blocks:
            pos = 3 * blk + rng.integers(0, 3)
            key_b[pos] = (key_b[pos] + rng.integers(1, 3)) % 3
        assert int((key_a != key_b).sum()) == 14
        out_a, out_b, report = parity_sift(key_a, key_b)
        assert report.kept_blocks == 36
        assert report.discarded_blocks == 14
        assert report.output_length == 72
        assert out_a.size == 72 and out_b.size == 72
        assert np.array_equal(out_a, out_b)
        assert report.residual_mismatches == 0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            parity_sift((0, 1, 2), (0, 1))

    def test_out_of_range_trit_refused(self):
        # 256 would wrap to 0 in int8, and the block would be kept
        with pytest.raises(ValidationError, match="trit value 256"):
            parity_sift((0, 1, 2), (256, 1, 2))

    def test_trailing_remainder_dropped(self):
        out_a, out_b, report = parity_sift((0, 0, 0, 1, 2), (0, 0, 0, 1, 2))
        assert report.dropped_trailing == 2
        assert report.kept_blocks == 1
        assert out_a.tolist() == [0, 0]

    def test_exhaustive_27_pattern_oracle(self):
        base = np.array([1, 0, 2], dtype=np.int8)
        for pattern, expect_kept in parity_block_survivors():
            shifted = (base + np.array(pattern, dtype=np.int8)) % 3
            _, _, report = parity_sift(base, shifted)
            assert report.kept_blocks == (1 if expect_kept else 0)
            # a kept nonzero pattern always mismatches within the output pair
            if expect_kept and any(pattern):
                assert report.residual_mismatches >= 1

    def test_outputs_equal_length_even(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(0, 40)) * 3
            key_a = rng.integers(0, 3, size=n, dtype=np.int8)
            key_b = np.where(rng.random(n) < 0.15,
                             (key_a + rng.integers(1, 3, size=n)) % 3, key_a)
            out_a, out_b, report = parity_sift(key_a, key_b)
            assert out_a.size == out_b.size == report.output_length
            assert report.output_length == 2 * report.kept_blocks
            # every kept block's parities agree by construction
            usable = n - report.dropped_trailing
            blocks_a = key_a[:usable].reshape(-1, 3)
            blocks_b = key_b[:usable].reshape(-1, 3)
            keep = (blocks_a.sum(axis=1) % 3) == (blocks_b.sum(axis=1) % 3)
            assert int(keep.sum()) == report.kept_blocks
            assert report.residual_mismatches == int(
                (blocks_a[keep][:, :2] != blocks_b[keep][:, :2]).sum())


class TestKeyFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "key.txt"
        key = np.array([0, 1, 2, 2, 1, 0], dtype=np.int8)
        write_key_file(path, key, comments=("test key",))
        loaded = read_key_file(path)
        assert np.array_equal(loaded, key)
        text = path.read_text()
        assert text.startswith("# test key\n")

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "key.txt"
        path.write_text("# comment\n\n012\n# another\n210\n")
        assert read_key_file(path).tolist() == [0, 1, 2, 2, 1, 0]

    def test_invalid_character_reports_line(self, tmp_path):
        path = tmp_path / "key.txt"
        path.write_text("012\n013\n")
        with pytest.raises(ValidationError, match="2"):
            read_key_file(path)

    def test_whitespace_and_crlf_tolerated(self, tmp_path):
        path = tmp_path / "key.txt"
        path.write_bytes(b"# c\r\n  01 2\t0\r\n\r\n 21")
        assert read_key_file(path).tolist() == [0, 1, 2, 0, 2, 1]
        assert read_key_file(path).dtype == np.int8

    @pytest.mark.parametrize("text, line, char", [
        ("012\n0 1 x\n", 2, "'x'"),
        ("# \u00e9\n01\u00e92\n", 2, "'\u00e9'"),
        ("3\n", 1, "'3'"),
    ])
    def test_invalid_character_message(self, tmp_path, text, line, char):
        path = tmp_path / "key.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            read_key_file(path)
        assert str(info.value) == f"{path}:{line}: invalid trit character {char}"
