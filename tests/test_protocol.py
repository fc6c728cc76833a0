import numpy as np
import pytest
from scipy.stats import chi2

from qutrit_qkd import bell, protocol
from qutrit_qkd.bell import random_basis
from qutrit_qkd.linalg import MixedState, ValidationError, make_state
from qutrit_qkd.protocol import (
    EveConfig,
    InsufficientDataError,
    PartyConfig,
    Rounds,
    SourceConfig,
    calibrate_noise,
    default_parties,
    estimate_s3,
    exact_session_s3,
    post_eve_mixture,
    qter,
    read_transcript,
    reference_source,
    run_protocol,
    run_session,
    security_verdict,
    sift,
    source_mixture,
    write_transcript,
)

IDEAL = SourceConfig()
NO_EVE = EveConfig()


def forced_parties(setting_a, setting_b):
    a, b = default_parties()
    probs_a = tuple(1.0 if s == setting_a else 0.0 for s in (1, 2, 3))
    probs_b = tuple(1.0 if s == setting_b else 0.0 for s in (1, 2, 3))
    return (PartyConfig(setting_probabilities=probs_a, bases=a.bases),
            PartyConfig(setting_probabilities=probs_b, bases=b.bases))


class TestConfigs:
    def test_source_ranges(self):
        with pytest.raises(ValidationError):
            SourceConfig(visibility=1.5)
        with pytest.raises(ValidationError):
            SourceConfig(background_fraction=-0.1)
        with pytest.raises(ValidationError):
            SourceConfig(detection_efficiency=0.0)
        with pytest.raises(ValidationError):
            SourceConfig(coefficients=(0, 0, 0))

    def test_party_probabilities(self):
        a, _ = default_parties()
        with pytest.raises(ValidationError):
            PartyConfig(setting_probabilities=(0.5, 0.5, 0.5), bases=a.bases)

    def test_eve_arm(self):
        with pytest.raises(ValidationError):
            EveConfig(enabled=True, arm="C")

    def test_biased_parties(self):
        a, b = default_parties(bias_a=(0.25, 0.25, 0.5), bias_b=(0.2, 0.2, 0.6))
        assert a.setting_probabilities == (0.25, 0.25, 0.5)
        assert b.setting_probabilities == (0.2, 0.2, 0.6)


class TestSampleRound:
    def test_key_setting_support(self):
        parties = forced_parties(3, 3)
        rounds = run_session(500, IDEAL, NO_EVE, *parties, seed=1)
        assert rounds.detected.all()
        seen = set(zip(rounds.outcome_a.tolist(), rounds.outcome_b.tolist()))
        assert seen == {(0, 0), (1, 2), (2, 1)}

    def test_full_background_uniform(self):
        source = SourceConfig(background_fraction=1.0)
        parties = forced_parties(3, 3)
        rounds = run_session(9000, source, NO_EVE, *parties, seed=2)
        counts = np.zeros((3, 3))
        np.add.at(counts, (rounds.outcome_a, rounds.outcome_b), 1)
        # each of the 9 pairs expected 1000 times; 5 sigma binomial band
        sigma = np.sqrt(9000 * (1 / 9) * (8 / 9))
        assert np.all(np.abs(counts - 1000) < 5 * sigma)

    def test_eve_computational_preserves_key_support(self):
        eve = EveConfig(enabled=True, arm="B")
        parties = forced_parties(3, 3)
        rounds = run_session(500, eve=eve, source=IDEAL, a=parties[0],
                             b=parties[1], seed=3)
        for pair in zip(rounds.outcome_a.tolist(), rounds.outcome_b.tolist()):
            assert pair in {(0, 0), (1, 2), (2, 1)}

    def test_undetected_has_no_outcomes(self):
        source = SourceConfig(detection_efficiency=0.05)
        parties = forced_parties(3, 3)
        rounds = run_session(100, source, NO_EVE, *parties, seed=4)
        undetected = ~rounds.detected
        assert undetected.any() and np.all(rounds.outcome_a[undetected] == -1) \
            and np.all(rounds.outcome_b[undetected] == -1)


class TestPostEveMixture:
    def test_computational_eve_collapse_enumeration(self):
        psi = make_state((0.642, 0.546, 0.539))
        mixed = post_eve_mixture(MixedState.pure(psi), EveConfig(enabled=True, arm="B"))
        # collapse onto |00>, |21>, |12> with the squared coefficients
        expected = {
            (0, 0): abs(psi[0, 0]) ** 2,
            (2, 1): abs(psi[2, 1]) ** 2,
            (1, 2): abs(psi[1, 2]) ** 2,
        }
        assert len(mixed.components) == 3
        for w, state in mixed.components:
            cell = np.unravel_index(np.argmax(np.abs(state)), (3, 3))
            assert w == pytest.approx(expected[cell], abs=1e-12)
            target = np.zeros((3, 3), dtype=complex)
            target[cell] = state[cell]
            assert np.allclose(state, target, atol=1e-12)

    def test_all_components_product_states(self):
        rng = np.random.default_rng(5)
        for arm in ("A", "B"):
            eve = EveConfig(enabled=True, arm=arm, basis=random_basis(rng))
            mixed = post_eve_mixture(source_mixture(SourceConfig(visibility=0.8)), eve)
            for _, state in mixed.components:
                # rank-1 amplitude matrix == product state
                s = np.linalg.svd(state, compute_uv=False)
                assert s[1] < 1e-12

    def test_exact_s3_at_most_classical(self):
        rng = np.random.default_rng(6)
        for arm in ("A", "B"):
            for _ in range(3):
                eve = EveConfig(enabled=True, arm=arm, basis=random_basis(rng))
                assert exact_session_s3(IDEAL, eve) <= 2.0 + 1e-9

    def test_white_noise_invariant(self):
        eve = EveConfig(enabled=True, arm="B")
        mixed = post_eve_mixture(MixedState.white(), eve)
        assert mixed.white_noise_weight == 1.0
        assert len(mixed.components) == 0


class TestRunSession:
    def test_deterministic(self):
        a, b = default_parties()
        r1 = run_session(4000, IDEAL, NO_EVE, a, b, seed=42)
        r2 = run_session(4000, IDEAL, NO_EVE, a, b, seed=42)
        for c1, c2 in zip(r1._columns(), r2._columns()):
            assert np.array_equal(c1, c2)

    def test_zero_rounds_rejected(self):
        a, b = default_parties()
        with pytest.raises(ValidationError):
            run_session(0, IDEAL, NO_EVE, a, b, seed=1)

    def test_setting_pair_frequencies(self):
        n = 200_000
        a, b = default_parties()
        rounds = run_session(n, IDEAL, NO_EVE, a, b, seed=7)
        sigma = np.sqrt(n * (1 / 9) * (8 / 9))
        for sa in (1, 2, 3):
            for sb in (1, 2, 3):
                count = int(((rounds.setting_a == sa) & (rounds.setting_b == sb)).sum())
                assert abs(count - n / 9) < 5 * sigma


class TestSift:
    def test_partition_of_detected(self):
        a, b = default_parties()
        source = SourceConfig(detection_efficiency=0.5)
        rounds = run_session(20_000, source, NO_EVE, a, b, seed=8)
        sifted = sift(rounds)
        n_det = int(rounds.detected.sum())
        assert sifted.n_key + sifted.n_bell + sifted.n_discarded == n_det
        discarded = rounds.detected & ~sifted.key_mask & ~sifted.bell_mask
        ids = np.concatenate([rounds.round_id[sifted.key_mask],
                              rounds.round_id[sifted.bell_mask], rounds.round_id[discarded]])
        assert len(np.unique(ids)) == n_det

    def test_fractions(self):
        a, b = default_parties()
        rounds = run_session(200_000, IDEAL, NO_EVE, a, b, seed=9)
        sifted = sift(rounds)
        n = len(rounds)
        assert sifted.n_key / n == pytest.approx(1 / 9, abs=0.005)
        assert sifted.n_bell / n == pytest.approx(4 / 9, abs=0.01)
        assert sifted.n_discarded / n == pytest.approx(4 / 9, abs=0.01)

    def test_all_key_settings(self):
        parties = forced_parties(3, 3)
        rounds = run_session(100, IDEAL, NO_EVE, *parties, seed=10)
        sifted = sift(rounds)
        assert sifted.n_key == 100
        assert sifted.n_bell == 0

    def test_matches_per_round_tally(self):
        a, b = default_parties(bias_a=(0.5, 0.2, 0.3), bias_b=(0.1, 0.4, 0.5))
        source = SourceConfig(detection_efficiency=0.5, visibility=0.8)
        rounds = run_session(3000, source, NO_EVE, a, b, seed=23)
        sifted = sift(rounds)
        counts = np.zeros((3, 3, 3, 3), dtype=np.int64)
        key, bell_rounds, discarded = [], [], []
        for i, (sa, oa, sb, ob, det) in enumerate(zip(
                *(c.tolist() for c in rounds._columns()[1:]))):
            if not det:
                continue
            counts[sa - 1, oa, sb - 1, ob] += 1
            if sa == 3 and sb == 3:
                key.append(i)
            elif sa in (1, 2) and sb in (1, 2):
                bell_rounds.append(i)
            else:
                discarded.append(i)
        assert np.array_equal(sifted.counts, counts)
        assert np.flatnonzero(sifted.key_mask).tolist() == key
        assert np.flatnonzero(sifted.bell_mask).tolist() == bell_rounds
        assert (sifted.n_key, sifted.n_bell, sifted.n_discarded) == (
            len(key), len(bell_rounds), len(discarded))
        assert sorted(key + bell_rounds + discarded) == np.flatnonzero(rounds.detected).tolist()
        assert key and bell_rounds and discarded
        assert sifted.key_a.tolist() == [int(rounds.outcome_a[i]) for i in key]
        relabel = {0: 0, 1: 2, 2: 1}
        assert sifted.key_b.tolist() == [relabel[int(rounds.outcome_b[i])] for i in key]

    def test_mixed_pair_discarded(self):
        parties = forced_parties(1, 3)
        rounds = run_session(100, IDEAL, NO_EVE, *parties, seed=11)
        sifted = sift(rounds)
        assert sifted.n_discarded == 100


class TestEstimateS3:
    def test_converges_to_exact(self):
        a, b = default_parties()
        rounds = run_session(100_000, IDEAL, NO_EVE, a, b, seed=12)
        s3_hat, sigma = estimate_s3(sift(rounds).counts)
        assert abs(s3_hat - bell.QUANTUM_MAX) < 3 * sigma

    def test_missing_pair_rejected(self):
        parties = forced_parties(1, 1)
        rounds = run_session(1000, IDEAL, NO_EVE, *parties, seed=13)
        with pytest.raises(InsufficientDataError):
            estimate_s3(sift(rounds).counts)

    def test_count_tensor_shape_checked(self):
        with pytest.raises(ValidationError, match="shape"):
            estimate_s3(np.ones((2, 3, 2, 3)))

    def test_estimator_algebra_all_positive_cells(self):
        # counts placed only on each pair's positive-coefficient cells give
        # exactly +1 per pair, so S3 = 4 (an algebraic, non-physical check)
        rows = {"setting_a": [], "setting_b": [], "outcome_a": [], "outcome_b": []}
        positive_cells = {
            (1, 1): [(0, 0), (1, 1), (2, 2)],
            (2, 1): [(2, 0), (0, 1), (1, 2)],
            (2, 2): [(0, 0), (1, 1), (2, 2)],
            (1, 2): [(0, 0), (1, 1), (2, 2)],
        }
        for (sa, sb), cells in positive_cells.items():
            for (oa, ob) in cells:
                for _ in range(10):
                    rows["setting_a"].append(sa)
                    rows["setting_b"].append(sb)
                    rows["outcome_a"].append(oa)
                    rows["outcome_b"].append(ob)
        n = len(rows["setting_a"])
        rounds = Rounds(
            round_id=np.arange(n),
            setting_a=np.array(rows["setting_a"], dtype=np.int8),
            outcome_a=np.array(rows["outcome_a"], dtype=np.int8),
            setting_b=np.array(rows["setting_b"], dtype=np.int8),
            outcome_b=np.array(rows["outcome_b"], dtype=np.int8),
            detected=np.ones(n, dtype=bool),
        )
        s3_hat, sigma = estimate_s3(sift(rounds).counts)
        assert s3_hat == pytest.approx(4.0, abs=1e-12)
        assert sigma == pytest.approx(0.0, abs=1e-12)

    def test_visibility_tuned_to_reference(self):
        visibility = 2.688 / bell.QUANTUM_MAX
        source = SourceConfig(visibility=visibility)
        a, b = default_parties()
        rounds = run_session(300_000, source, NO_EVE, a, b, seed=14)
        s3_hat, sigma = estimate_s3(sift(rounds).counts)
        assert abs(s3_hat - 2.688) < 3 * sigma

    def test_empirical_tables_chi_square(self):
        # pooled chi-square over the nine setting-pair tables at n = 1e5;
        # at least 99 of 100 seeded repetitions stay below the 99.9% quantile
        a, b = default_parties()
        tables = protocol._setting_tables(IDEAL, NO_EVE, a, b)
        threshold = chi2.ppf(0.999, df=72)
        passes = 0
        for seed in range(100):
            rounds = run_session(100_000, IDEAL, NO_EVE, a, b, seed=seed)
            stat = 0.0
            for (sa, sb), table in tables.items():
                mask = (rounds.setting_a == sa) & (rounds.setting_b == sb)
                cells = 3 * rounds.outcome_a[mask].astype(int) + rounds.outcome_b[mask]
                counts = np.bincount(cells, minlength=9).astype(float)
                expected = table.ravel() * mask.sum()
                nz = expected > 0
                stat += float(((counts[nz] - expected[nz]) ** 2 / expected[nz]).sum())
                assert counts[~nz].sum() == 0
            if stat < threshold:
                passes += 1
        assert passes >= 99


class TestKeysAndVerdict:
    def test_extract_remap(self):
        rounds = Rounds(
            round_id=np.arange(3),
            setting_a=np.full(3, 3, dtype=np.int8),
            outcome_a=np.array([1, 0, 2], dtype=np.int8),
            setting_b=np.full(3, 3, dtype=np.int8),
            outcome_b=np.array([2, 0, 1], dtype=np.int8),
            detected=np.ones(3, dtype=bool),
        )
        sifted = sift(rounds)
        key_a, key_b = sifted.key_a, sifted.key_b
        assert key_a.tolist() == [1, 0, 2]
        assert key_b.tolist() == [1, 0, 2]

    def test_ideal_qter_zero(self):
        parties = forced_parties(3, 3)
        rounds = run_session(10_000, IDEAL, NO_EVE, *parties, seed=15)
        sifted = sift(rounds)
        assert qter(sifted.key_a, sifted.key_b) == 0.0

    def test_qter_reference_fraction(self):
        key_a = np.zeros(150, dtype=np.int8)
        key_b = key_a.copy()
        key_b[:14] = 1
        assert qter(key_a, key_b) == pytest.approx(0.0933, abs=5e-5)

    def test_qter_extremes_and_mismatch(self):
        assert qter([0, 1, 2], [0, 1, 2]) == 0.0
        assert qter([0, 1, 2], [1, 2, 0]) == 1.0
        with pytest.raises(ValidationError):
            qter([0, 1], [0, 1, 2])
        with pytest.raises(InsufficientDataError):
            qter([], [])

    def test_verdict_reference_values(self):
        report = security_verdict(2.688, 0.171, 0.093)
        assert report.secure
        assert report.sigmas_above_classical == pytest.approx(4.02, abs=0.01)
        report = security_verdict(1.9, 0.05, 0.01)
        assert not report.secure
        report = security_verdict(2.825, 0.052, 0.074)
        assert report.secure
        assert report.sigmas_above_classical == pytest.approx(15.9, abs=0.1)
        assert report.noise_bound == 0.225

    def test_verdict_lines_render(self):
        lines = security_verdict(2.688, 0.171, 0.093).lines()
        assert any("SECURE" in line for line in lines)
        assert any("0.225" in line for line in lines)


class TestNoiseKnobs:
    def test_background_monotonically_decreases_s3(self):
        values = [exact_session_s3(SourceConfig(background_fraction=b))
                  for b in (0.0, 0.1, 0.2, 0.4, 0.8)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_calibration_hits_targets_exactly(self):
        source = reference_source()
        assert exact_session_s3(source) == pytest.approx(2.688, abs=1e-9)
        a, b = default_parties()
        table = protocol._setting_tables(source, NO_EVE, a, b)[(3, 3)]
        match = table[0, 0] + table[1, 2] + table[2, 1]
        assert 1.0 - match == pytest.approx(14 / 150, abs=1e-9)

    def test_calibration_rejects_unreachable(self):
        with pytest.raises(ValidationError):
            calibrate_noise(target_s3=3.0)
        with pytest.raises(ValidationError):
            calibrate_noise(target_s3=2.87, target_qter=0.7)  # above the 2/3 ceiling


class TestProtocolSession:
    def test_transcript_message_flow(self):
        result = run_protocol(20_000, seed=16)
        kinds = [m.kind for m in result.transcript]
        assert kinds == ["settings", "settings", "bell-outcomes",
                         "key-comparison-diagnostic", "verdict"]
        senders = [m.sender for m in result.transcript]
        assert senders == ["A", "B", "B", "B", "A"]

    def test_fractions_sum_to_detected(self):
        result = run_protocol(30_000, source=SourceConfig(detection_efficiency=0.4),
                              seed=17)
        assert sum(result.sifted_fractions) == pytest.approx(
            result.n_detected / result.n_rounds, abs=1e-12)

    def test_party_estimate_matches_omniscient(self):
        result = run_protocol(50_000, seed=18)
        sifted = sift(result.rounds)
        s3_hat, sigma = estimate_s3(sifted.counts)
        assert result.s3_estimate == pytest.approx(s3_hat, abs=1e-12)
        assert result.s3_sigma == pytest.approx(sigma, abs=1e-12)
        key_a, key_b = sifted.key_a, sifted.key_b
        assert np.array_equal(result.key_a, key_a)
        assert np.array_equal(result.key_b, key_b)

    def test_bitwise_deterministic(self):
        r1 = run_protocol(10_000, seed=19)
        r2 = run_protocol(10_000, seed=19)
        assert r1.s3_estimate == r2.s3_estimate
        assert r1.qter == r2.qter
        assert np.array_equal(r1.key_a, r2.key_a)
        assert np.array_equal(r1.key_b, r2.key_b)

    def test_eve_detected_by_bell_check(self):
        eve = EveConfig(enabled=True, arm="B")
        result = run_protocol(100_000, eve=eve, seed=20)
        assert result.s3_estimate < 2.0 + 3 * result.s3_sigma
        assert not result.secure
        assert result.qter == 0.0   # computational-basis attack leaves the key clean


class TestTranscriptIO:
    def test_round_trip(self, tmp_path):
        a, b = default_parties()
        rounds = run_session(500, SourceConfig(detection_efficiency=0.7),
                             NO_EVE, a, b, seed=21)
        path = tmp_path / "transcript.txt"
        write_transcript(path, rounds, header={"seed": 21, "rounds": 500})
        loaded, header = read_transcript(path)
        assert header == {"seed": "21", "rounds": "500"}
        for c1, c2 in zip(rounds._columns(), loaded._columns()):
            assert np.array_equal(c1, c2)

    def test_bad_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 0 1 0 1\n1 2 0\n")
        with pytest.raises(ValidationError, match="2"):
            read_transcript(path)

    @pytest.mark.parametrize("chunk_rows", [None, 64])
    def test_writer_matches_reference_text(self, tmp_path, monkeypatch, chunk_rows):
        if chunk_rows is not None:
            monkeypatch.setattr(protocol, "_WRITE_CHUNK_ROWS", chunk_rows)
        a, b = default_parties()
        rounds = run_session(1500, SourceConfig(detection_efficiency=0.7),
                             NO_EVE, a, b, seed=22)
        header = {"seed": 22, "coefficients": (1.0, 1.0, 1.0)}
        path = tmp_path / "transcript.txt"
        write_transcript(path, rounds, header=header)
        expected = [f"# {key} = {value}\n" for key, value in header.items()]
        for rid, sa, oa, sb, ob, det in zip(*(c.tolist() for c in rounds._columns())):
            oa, ob = (oa, ob) if det else ("-", "-")
            expected.append(f"{rid} {sa} {oa} {sb} {ob} {int(det)}\n")
        assert path.read_bytes() == "".join(expected).encode()

    READ_CASES = {
        "tabs": ("0\t1\t0\t1\t0\t1\n", [(0, 1, 0, 1, 0, True)]),
        "space runs": ("0   1 0  1 0      1\n", [(0, 1, 0, 1, 0, True)]),
        "crlf": ("# seed = 4\r\n0 1 0 1 0 1\r\n7 3 - 2 - 0\r\n",
                 [(0, 1, 0, 1, 0, True), (7, 3, -1, 2, -1, False)]),
        "indentation": ("   0 2 1 3 2 1\n\t 12 1 2 1 0 1\n",
                        [(0, 2, 1, 3, 2, True), (12, 1, 2, 1, 0, True)]),
        "comments and blanks": ("0 1 0 1 0 1\n\n  # note\n   \n#x=y\n5 3 - 2 - 0\n",
                                [(0, 1, 0, 1, 0, True), (5, 3, -1, 2, -1, False)]),
        "no final newline": ("0 1 0 1 0 1\n1 3 - 2 - 0",
                             [(0, 1, 0, 1, 0, True), (1, 3, -1, 2, -1, False)]),
        "header only": ("# seed = 1\n", []),
        "empty": ("", []),
    }

    @pytest.mark.parametrize("block_bytes", [None, 1, 7])
    @pytest.mark.parametrize("case", sorted(READ_CASES))
    def test_reader_accepts(self, tmp_path, monkeypatch, case, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(protocol, "_READ_BLOCK_BYTES", block_bytes)
        text, rows = self.READ_CASES[case]
        path = tmp_path / "t.txt"
        path.write_bytes(text.encode())
        loaded, _ = read_transcript(path)
        columns = loaded._columns()
        assert [c.dtype for c in columns] == [np.int64, np.int8, np.int8,
                                              np.int8, np.int8, np.bool_]
        assert list(zip(*(c.tolist() for c in columns))) == rows

    def test_reader_header_anywhere(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"# seed = 3\n0 1 0 1 0 1\n  #rounds=2  \n1 1 0 1 0 1\n# \xff\n")
        _, header = read_transcript(path)
        assert header == {"seed": "3", "rounds": "2"}

    REJECT_CASES = {
        "detected with dash outcome": ("0 1 - 1 0 1\n", 1, "outcome_a '-'"),
        "setting 9 outcome 7": ("0 9 7 1 0 1\n", 1, "setting_a '9'"),
        "setting_b 4": ("# h\n0 1 0 4 0 1\n", 2, "setting_b '4'"),
        "outcome 7": ("0 1 0 1 0 1\n1 1 7 1 0 1\n", 2, "outcome_a '7'"),
        "outcome_b 3": ("0 1 0 1 3 1\n", 1, "outcome_b '3'"),
        "detected 2": ("0 1 0 1 0 2\n", 1, "detected '2'"),
        "undetected with outcome": ("0 1 - 1 2 0\n", 1, "outcome_b '2' must be '-'"),
        "multi-character field": ("0 01 0 1 0 1\n", 1, "setting_a '01'"),
        "negative id": ("-1 1 0 1 0 1\n", 1, "round_id '-1'"),
        "non-digit id": ("0 1 0 1 0 1\n\n1x 1 0 1 0 1\n", 3, "round_id '1x'"),
        "19-digit id": ("1000000000000000000 1 0 1 0 1\n", 1, "round_id"),
        "duplicate id": ("0 1 0 1 0 1\n# c\n0 1 0 1 0 1\n", 3, "does not exceed"),
        "decreasing id": ("5 1 0 1 0 1\n3 1 0 1 0 1\n", 2, "does not exceed"),
        "seven fields": ("0 1 0 1 0 1\n1 1 0 1 0 1 1\n", 2, "expected 6 fields, got 7"),
        "first fault wins": ("0 1 0 1 0 1\n1 2 0\n0 9 9 9 9 9\n", 2, "expected 6"),
    }

    @pytest.mark.parametrize("block_bytes", [None, 1])
    @pytest.mark.parametrize("case", sorted(REJECT_CASES))
    def test_reader_rejects(self, tmp_path, monkeypatch, case, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(protocol, "_READ_BLOCK_BYTES", block_bytes)
        text, line, message = self.REJECT_CASES[case]
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValidationError) as info:
            read_transcript(path)
        assert str(info.value).startswith(f"{path}:{line}: ")
        assert message in str(info.value)

    @pytest.mark.parametrize("block_bytes", [None, 4096])
    def test_reader_line_numbers_across_blocks(self, tmp_path, monkeypatch, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(protocol, "_READ_BLOCK_BYTES", block_bytes)
        n = 30_000          # about 490 kB: more than one default read block
        lines = ["# seed = 1\n"] + [f"{i} {1 + i % 3} {i % 3} 2 1 1\n" for i in range(n)]
        lines[n // 2:n // 2] = ["\n", "  # midway\n"]
        path = tmp_path / "t.txt"
        path.write_text("".join(lines))
        loaded, _ = read_transcript(path)
        assert np.array_equal(loaded.round_id, np.arange(n))
        assert np.array_equal(loaded.setting_a, 1 + np.arange(n) % 3)
        bad_line = 25_000
        lines[bad_line - 1] = lines[bad_line - 1].replace(" 2 1 1\n", " 2 1 -\n")
        path.write_text("".join(lines))
        assert path.stat().st_size > protocol._READ_BLOCK_BYTES
        with pytest.raises(ValidationError, match=f":{bad_line}: detected '-'"):
            read_transcript(path)

    @pytest.mark.parametrize("column, value, message", [
        ("setting_a", 4, "round index 3: setting_a '4'"),
        ("outcome_b", -1, "round index 3: outcome_b '-1' must be 0, 1 or 2"),
        ("round_id", 1, "round index 3: round_id 1 does not exceed"),
    ])
    def test_writer_rejects_unreadable_rounds(self, tmp_path, column, value, message):
        rounds = run_session(10, IDEAL, NO_EVE, *default_parties(), seed=1)
        getattr(rounds, column)[3] = value
        with pytest.raises(ValidationError, match=message):
            write_transcript(tmp_path / "t.txt", rounds)
