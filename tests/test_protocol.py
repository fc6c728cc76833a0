import itertools
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import session_columns_reference
from scipy.stats import chi2

from qutrit_qkd import bell, protocol, transcript
from qutrit_qkd.bell import random_basis
from qutrit_qkd.linalg import (
    SWAP_12,
    MixedState,
    ValidationError,
    make_state,
    orthonormality_residual,
)
from qutrit_qkd.protocol import (
    EveConfig,
    InsufficientDataError,
    Party,
    PartyConfig,
    Rounds,
    SourceConfig,
    calibrate_noise,
    analyze,
    estimate_s3,
    exact_session_s3,
    iter_session,
    post_eve_mixture,
    qter,
    reference_source,
    run_protocol,
    run_session,
    security_verdict,
    sift,
    source_mixture,
)
from qutrit_qkd.transcript import iter_transcript, transcribe

IDEAL = SourceConfig()
NO_EVE = EveConfig()


def forced_parties(setting_a, setting_b):
    probs_a = tuple(1.0 if s == setting_a else 0.0 for s in (1, 2, 3))
    probs_b = tuple(1.0 if s == setting_b else 0.0 for s in (1, 2, 3))
    return (PartyConfig(setting_probabilities=probs_a),
            PartyConfig(setting_probabilities=probs_b))


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
        with pytest.raises(ValidationError):
            PartyConfig(setting_probabilities=(0.5, 0.5, 0.5))

    def test_eve_arm(self):
        with pytest.raises(ValidationError):
            EveConfig(enabled=True, arm="C")
        with pytest.raises(ValidationError):
            EveConfig(enabled=True, basis=np.full((3, 3), np.nan, dtype=complex))

    def test_biased_parties(self):
        a, b = PartyConfig((0.25, 0.25, 0.5)), PartyConfig((0.2, 0.2, 0.6))
        assert a.setting_probabilities == (0.25, 0.25, 0.5)
        assert b.setting_probabilities == (0.2, 0.2, 0.6)


class TestAnalyzers:
    """The fixed analyzers: settings 1, 2 and 3 (key) stacked per party."""

    def test_blocks_are_orthonormal(self):
        for rows in (protocol._ROWS_A, protocol._ROWS_B):
            assert rows.shape == (9, 3)
            for block in rows.reshape(3, 3, 3):
                assert orthonormality_residual(block) < 1e-12

    def test_blocks_are_the_canonical_settings(self):
        s = bell.canonical_settings()
        want_a = (s.a1, s.a2, np.eye(3))
        want_b = (s.b1[:, SWAP_12], s.b2[:, SWAP_12], np.eye(3))
        for rows, want in ((protocol._ROWS_A, want_a), (protocol._ROWS_B, want_b)):
            for block, basis in zip(rows.reshape(3, 3, 3), want):
                assert np.array_equal(block, basis)

    def test_ideal_session_reaches_quantum_max(self):
        assert exact_session_s3(SourceConfig()) == pytest.approx(bell.QUANTUM_MAX, abs=1e-12)


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
        a, b = PartyConfig(), PartyConfig()
        r1 = run_session(4000, IDEAL, NO_EVE, a, b, seed=42)
        r2 = run_session(4000, IDEAL, NO_EVE, a, b, seed=42)
        for c1, c2 in zip(r1._columns(), r2._columns()):
            assert np.array_equal(c1, c2)

    def test_zero_rounds_rejected(self):
        a, b = PartyConfig(), PartyConfig()
        with pytest.raises(ValidationError):
            run_session(0, IDEAL, NO_EVE, a, b, seed=1)

    def test_setting_pair_frequencies(self):
        n = 200_000
        a, b = PartyConfig(), PartyConfig()
        rounds = run_session(n, IDEAL, NO_EVE, a, b, seed=7)
        sigma = np.sqrt(n * (1 / 9) * (8 / 9))
        for sa in (1, 2, 3):
            for sb in (1, 2, 3):
                count = int(((rounds.setting_a == sa) & (rounds.setting_b == sb)).sum())
                assert abs(count - n / 9) < 5 * sigma


class TestSift:
    def test_partition_of_detected(self):
        a, b = PartyConfig(), PartyConfig()
        source = SourceConfig(detection_efficiency=0.5)
        rounds = run_session(20_000, source, NO_EVE, a, b, seed=8)
        sifted = sift(rounds)
        det = rounds.detected
        key = int((det & (rounds.setting_a == 3) & (rounds.setting_b == 3)).sum())
        bell_rounds = int((det & (rounds.setting_a <= 2) & (rounds.setting_b <= 2)).sum())
        mixed = int((det & ((rounds.setting_a == 3) != (rounds.setting_b == 3))).sum())
        assert (sifted.n_key, sifted.n_bell, sifted.n_discarded) == (key, bell_rounds, mixed)
        assert key + bell_rounds + mixed == int(det.sum())

    def test_fractions(self):
        a, b = PartyConfig(), PartyConfig()
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
        a, b = PartyConfig((0.5, 0.2, 0.3)), PartyConfig((0.1, 0.4, 0.5))
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
        key_mask = Party(rounds.setting_a, rounds.detected).sift_masks(rounds.setting_b)
        assert np.flatnonzero(key_mask).tolist() == key
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
        a, b = PartyConfig(), PartyConfig()
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
        a, b = PartyConfig(), PartyConfig()
        rounds = run_session(300_000, source, NO_EVE, a, b, seed=14)
        s3_hat, sigma = estimate_s3(sift(rounds).counts)
        assert abs(s3_hat - 2.688) < 3 * sigma

    def test_empirical_tables_chi_square(self):
        # pooled chi-square over the nine setting-pair tables at n = 1e5;
        # at least 99 of 100 seeded repetitions stay below the 99.9% quantile
        a, b = PartyConfig(), PartyConfig()
        tables = protocol._setting_tables(IDEAL, NO_EVE)
        threshold = chi2.ppf(0.999, df=72)
        passes = 0
        for seed in range(100):
            rounds = run_session(100_000, IDEAL, NO_EVE, a, b, seed=seed)
            # every round is detected; cell [sa - 1, oa, sb - 1, ob] of all 81
            cells = 27 * rounds.setting_a.astype(int) + 9 * rounds.outcome_a \
                + 3 * rounds.setting_b + rounds.outcome_b - 30
            all_counts = np.bincount(cells, minlength=81).reshape(3, 3, 3, 3)
            stat = 0.0
            for sa, sb in itertools.product((1, 2, 3), repeat=2):
                table = tables[sa - 1, :, sb - 1, :]
                counts = all_counts[sa - 1, :, sb - 1, :].ravel().astype(float)
                expected = table.ravel() * counts.sum()
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
        assert protocol.NOISE_BOUND_QUTRIT == 0.225

    def test_verdict_lines_render(self):
        lines = security_verdict(2.688, 0.171, 0.093).lines()
        assert any("SECURE" in line for line in lines)
        assert any("0.225" in line for line in lines)

    def test_session_result_holds_its_verdict(self):
        r = run_protocol(3000, seed=4)
        verdict = security_verdict(r.s3_estimate, r.s3_sigma, r.qter)
        assert r.lines() == verdict.lines()
        assert r.sigmas_above_classical == verdict.sigmas_above_classical
        assert r.secure == verdict.secure


class TestNoiseKnobs:
    def test_background_monotonically_decreases_s3(self):
        values = [exact_session_s3(SourceConfig(background_fraction=b))
                  for b in (0.0, 0.1, 0.2, 0.4, 0.8)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_calibration_hits_targets_exactly(self):
        source = reference_source()
        assert exact_session_s3(source) == pytest.approx(2.688, abs=1e-9)
        table = protocol._setting_tables(source, NO_EVE)[2, :, 2, :]
        match = table[0, 0] + table[1, 2] + table[2, 1]
        assert 1.0 - match == pytest.approx(14 / 150, abs=1e-9)

    def test_calibration_rejects_unreachable(self):
        with pytest.raises(ValidationError):
            calibrate_noise(target_s3=3.0)
        with pytest.raises(ValidationError):
            calibrate_noise(target_s3=2.87, target_qter=0.7)  # above the 2/3 ceiling


class TestProtocolSession:
    def test_fractions_sum_to_detected(self):
        result = run_protocol(30_000, source=SourceConfig(detection_efficiency=0.4),
                              seed=17)
        assert sum(result.sifted_fractions) == pytest.approx(
            result.n_detected / result.n_rounds, abs=1e-12)

    def test_party_estimate_matches_omniscient(self):
        result = run_protocol(50_000, seed=18)
        sifted = sift(run_session(50_000, IDEAL, NO_EVE, PartyConfig(), PartyConfig(), seed=18))
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


C = protocol._SESSION_CHUNK_ROWS


class TestChunkedSession:
    BIAS_A, BIAS_B = (0.2, 0.3, 0.5), (0.25, 0.15, 0.6)
    SOURCE = SourceConfig(coefficients=(0.642, 0.546, 0.539), visibility=0.9,
                          detection_efficiency=0.4)
    EVE = EveConfig(enabled=True, arm="A")

    def session(self, n, seed):
        a, b = PartyConfig(self.BIAS_A), PartyConfig(self.BIAS_B)
        return run_session(n, self.SOURCE, self.EVE, a, b, seed=seed)

    @pytest.mark.parametrize("n", [1, C - 1, C, C + 1, 2 * C + 7])
    def test_matches_reference_oracle(self, n):
        tables = protocol._setting_tables(self.SOURCE, self.EVE)
        expected = session_columns_reference(n, tables, self.BIAS_A, self.BIAS_B, 0.4, seed=n)
        got = self.session(n, seed=n)._columns()
        for col, want in zip(got, expected):
            assert col.dtype == want.dtype
            assert np.array_equal(col, want)

    def test_chunk_sizes(self):
        a, b = PartyConfig(), PartyConfig()
        chunks = list(iter_session(2 * C + 7, IDEAL, NO_EVE, a, b, seed=3))
        assert [len(c) for c in chunks] == [C, C, 7]
        assert chunks[2].round_id[0] == 2 * C

    def test_analyze_uneven_splits(self):
        rounds = self.session(C + 5000, seed=31)
        cuts = (0, 1, 1000, len(rounds))
        parts = [rounds.subset(slice(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
        whole, split = analyze([rounds]), analyze(iter(parts))
        for name in ("s3_estimate", "s3_sigma", "qter", "sifted_fractions",
                     "secure", "n_rounds", "n_detected"):
            assert getattr(split, name) == getattr(whole, name)
        assert np.array_equal(split.key_a, whole.key_a)
        assert np.array_equal(split.key_b, whole.key_b)

    def test_analysis_memory_does_not_grow_with_rounds(self):
        a, b = PartyConfig(), PartyConfig()
        source = SourceConfig(detection_efficiency=0.01)

        def peak(n):
            tracemalloc.start()
            try:
                analyze(iter_session(n, source, NO_EVE, a, b, seed=5))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2_000_000) <= peak(C) + 1_000_000

    def test_analyze_of_no_chunks(self):
        with pytest.raises(InsufficientDataError, match="no rounds"):
            analyze(iter(()))

    def test_transcript_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(transcript, "_READ_BLOCK_BYTES", 4096)
        rounds = self.session(3000, seed=32)
        whole, split = tmp_path / "whole.txt", tmp_path / "split.txt"
        list(transcribe(whole, [rounds], header={"seed": 32}))
        list(transcribe(split, (rounds.subset(slice(0, 7)), rounds.subset(slice(7, None))),
                        header={"seed": 32}))
        assert split.read_bytes() == whole.read_bytes()
        header = {}
        chunks = list(iter_transcript(split, header))
        assert header == {"seed": "32"} and len(chunks) > 1
        assert sum(len(c) for c in chunks) == len(rounds)
        for c1, c2 in zip(protocol._concat(chunks)._columns(), rounds._columns()):
            assert np.array_equal(c1, c2)

    def test_writer_checks_ids_across_chunks(self, tmp_path):
        rounds = self.session(10, seed=33)
        first = rounds.subset(slice(0, 5))
        with pytest.raises(ValidationError, match="round index 5: round_id 0 does not exceed"):
            list(transcribe(tmp_path / "t.txt", (first, first)))


K = protocol._BUCKETS
M = protocol._BUCKET_MIN_ROUNDS


class TestBucketLookup:
    # setting-pair outcome rows (9 cells each) that a bucket table over
    # [b/K, (b+1)/K) must not get wrong
    ODD_ROWS = (
        # zero-probability outcomes: equal thresholds
        (0.5, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0),
        # every threshold exactly on a bucket edge k/K
        tuple(np.array([1, 2, 61, 64, 0, 0, 64, 64, 0]) * (K // 256) / K),
        # two distinct thresholds strictly inside the bucket [K/2, K/2 + 1)/K
        (0.5 + 0.3 / K, 0.4 / K, 0.0, 0.25, 0.25 - 0.7 / K, 0.0, 0.0, 0.0, 0.0),
        # cumulative sums 0.2, 0.6000000000000001, 0.9, 1.0000000000000002
        (0.2, 0.4, 0.3, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0),
    )

    @classmethod
    def tables(cls, pairs, seed):
        """(3, 3, 3, 3) outcome tables: ODD_ROWS on ``pairs``, random rows elsewhere."""
        rows = np.random.default_rng(seed).dirichlet(np.ones(9), size=9)
        rows[list(pairs)] = cls.ODD_ROWS
        return rows.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3)

    def test_table_against_bruteforce(self):
        t = self.tables(range(4), seed=1)
        thresholds = np.cumsum(t.transpose(0, 2, 1, 3).reshape(9, 9), axis=1)[:, :8]
        # the odd rows are what they claim to be
        assert (np.diff(thresholds[0]) == 0).any()
        assert np.array_equal(K * thresholds[1], np.round(K * thresholds[1]))
        assert np.floor(K * thresholds[2, 0]) == np.floor(K * thresholds[2, 1]) == K // 2 \
            and thresholds[2, 0] < thresholds[2, 1]
        assert thresholds[3, 3] > 1.0
        table = protocol._bucket_table(np.ascontiguousarray(thresholds.T)).reshape(9, K)
        low, high = np.arange(K) / K, np.arange(1, K + 1) / K
        for pair, row in enumerate(thresholds):
            inside = ((row[:, None] > low) & (row[:, None] < high)).any(axis=0)
            below = (row[:, None] <= low).sum(axis=0)
            assert np.array_equal(table[pair], np.where(inside, -1, below))
        # split buckets: K/2 (two thresholds) and 3K/4 (0.75 + 0.7/K) in the
        # third row; 0.2, 0.6000000000000001 and 0.9 in the fourth, whose
        # 1.0000000000000002 lies above every bucket
        assert [(table[pair] == -1).sum() for pair in range(4)] == [0, 0, 2, 3]

    @given(n=st.sampled_from([1, M - 1, M, C - 1, C, C + 1]),
           pairs=st.permutations(range(9)),
           bias=st.sampled_from([(1 / 3, 1 / 3, 1 / 3), (0.2, 0.3, 0.5), (0.25, 0.15, 0.6)]),
           detection=st.sampled_from([1.0, 0.4]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def test_matches_reference_oracle(self, n, pairs, bias, detection, seed):
        tables = self.tables(pairs[:4], seed)
        expected = session_columns_reference(n, tables, bias, bias[::-1], detection, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "_setting_tables", lambda source, eve: tables)
            got = run_session(n, SourceConfig(detection_efficiency=detection), NO_EVE,
                              PartyConfig(bias), PartyConfig(bias[::-1]), seed=seed)
        for col, want in zip(got._columns(), expected):
            assert col.dtype == want.dtype
            assert np.array_equal(col, want)


class TestTranscriptIO:
    def test_round_trip(self, tmp_path):
        a, b = PartyConfig(), PartyConfig()
        rounds = run_session(500, SourceConfig(detection_efficiency=0.7),
                             NO_EVE, a, b, seed=21)
        path = tmp_path / "transcript.txt"
        list(transcribe(path, [rounds], header={"seed": 21, "rounds": 500}))
        header = {}
        loaded = protocol._concat(iter_transcript(path, header))
        assert header == {"seed": "21", "rounds": "500"}
        for c1, c2 in zip(rounds._columns(), loaded._columns()):
            assert np.array_equal(c1, c2)

    def test_bad_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 0 1 0 1\n1 2 0\n")
        with pytest.raises(ValidationError, match="2"):
            list(iter_transcript(path))

    @pytest.mark.parametrize("chunk_rows", [None, 64])
    def test_writer_matches_reference_text(self, tmp_path, chunk_rows):
        a, b = PartyConfig(), PartyConfig()
        rounds = run_session(1500, SourceConfig(detection_efficiency=0.7),
                             NO_EVE, a, b, seed=22)
        chunks = [rounds] if chunk_rows is None else [
            rounds.subset(slice(lo, lo + chunk_rows)) for lo in range(0, len(rounds), chunk_rows)]
        header = {"seed": 22, "coefficients": (1.0, 1.0, 1.0)}
        path = tmp_path / "transcript.txt"
        list(transcribe(path, chunks, header=header))
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
            monkeypatch.setattr(transcript, "_READ_BLOCK_BYTES", block_bytes)
        text, rows = self.READ_CASES[case]
        path = tmp_path / "t.txt"
        path.write_bytes(text.encode())
        loaded = protocol._concat(iter_transcript(path))
        columns = loaded._columns()
        assert [c.dtype for c in columns] == [np.int64, np.int8, np.int8,
                                              np.int8, np.int8, np.bool_]
        assert list(zip(*(c.tolist() for c in columns))) == rows

    def test_reader_header_anywhere(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"# seed = 3\n0 1 0 1 0 1\n  #rounds=2  \n1 1 0 1 0 1\n# \xff\n")
        header = {}
        list(iter_transcript(path, header))
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
            monkeypatch.setattr(transcript, "_READ_BLOCK_BYTES", block_bytes)
        text, line, message = self.REJECT_CASES[case]
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValidationError) as info:
            list(iter_transcript(path))
        assert str(info.value).startswith(f"{path}:{line}: ")
        assert message in str(info.value)

    @pytest.mark.parametrize("block_bytes", [None, 4096])
    def test_reader_line_numbers_across_blocks(self, tmp_path, monkeypatch, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(transcript, "_READ_BLOCK_BYTES", block_bytes)
        n = 30_000          # about 490 kB: more than one default read block
        lines = ["# seed = 1\n"] + [f"{i} {1 + i % 3} {i % 3} 2 1 1\n" for i in range(n)]
        lines[n // 2:n // 2] = ["\n", "  # midway\n"]
        path = tmp_path / "t.txt"
        path.write_text("".join(lines))
        loaded = protocol._concat(iter_transcript(path))
        assert np.array_equal(loaded.round_id, np.arange(n))
        assert np.array_equal(loaded.setting_a, 1 + np.arange(n) % 3)
        bad_line = 25_000
        lines[bad_line - 1] = lines[bad_line - 1].replace(" 2 1 1\n", " 2 1 -\n")
        path.write_text("".join(lines))
        assert path.stat().st_size > transcript._READ_BLOCK_BYTES
        with pytest.raises(ValidationError, match=f":{bad_line}: detected '-'"):
            list(iter_transcript(path))

    @pytest.mark.parametrize("column, value, message", [
        ("setting_a", 4, "round index 3: setting_a '4'"),
        ("outcome_b", -1, "round index 3: outcome_b '-1' must be 0, 1 or 2"),
        ("round_id", 1, "round index 3: round_id 1 does not exceed"),
    ])
    def test_writer_rejects_unreadable_rounds(self, tmp_path, column, value, message):
        rounds = run_session(10, IDEAL, NO_EVE, PartyConfig(), PartyConfig(), seed=1)
        getattr(rounds, column)[3] = value
        with pytest.raises(ValidationError, match=message):
            list(transcribe(tmp_path / "t.txt", [rounds]))

    WIDE_IDS = (0, 9, 10, 99, 100, 9999, 10000, 99999999, 100000000, 10**17, 10**18 - 1)

    @pytest.mark.parametrize("chunk_rows", [None, 7])
    def test_writer_id_widths(self, tmp_path, chunk_rows):
        # every id width from 1 to 18 digits, next to each 4-digit group
        # boundary, with all 90 line tails: 9 setting pairs x (9 outcome
        # pairs or undetected)
        ids = sorted({i + k for i in self.WIDE_IDS for k in range(-8, 9)
                      if 0 <= i + k < 10**18})
        n = len(ids)
        assert n >= 90
        code = np.arange(n) % 90
        pair, outcomes = code // 10, code % 10
        det = outcomes < 9
        rounds = Rounds(round_id=np.array(ids, dtype=np.int64),
                        setting_a=(1 + pair // 3).astype(np.int8),
                        outcome_a=np.where(det, outcomes // 3, -1).astype(np.int8),
                        setting_b=(1 + pair % 3).astype(np.int8),
                        outcome_b=np.where(det, outcomes % 3, -1).astype(np.int8),
                        detected=det)
        chunks = [rounds] if chunk_rows is None else [
            rounds.subset(slice(lo, lo + chunk_rows)) for lo in range(0, n, chunk_rows)]
        path = tmp_path / "t.txt"
        list(transcribe(path, chunks))
        expected = []
        for rid, sa, oa, sb, ob, seen in zip(*(c.tolist() for c in rounds._columns())):
            oa, ob = (oa, ob) if seen else ("-", "-")
            expected.append(f"{rid} {sa} {oa} {sb} {ob} {int(seen)}\n")
        assert path.read_bytes() == "".join(expected).encode()
        loaded = protocol._concat(iter_transcript(path))
        for c1, c2 in zip(loaded._columns(), rounds._columns()):
            assert c1.dtype == c2.dtype and np.array_equal(c1, c2)

    @staticmethod
    def _edited(text, edits):
        """``text`` with some lines re-rendered in other whitespace layouts,
        and comment and blank lines inserted; ``edits`` maps a line index to
        a layout number."""
        layouts = (
            lambda f: "\t".join(f) + "\n",
            lambda f: "  ".join(f) + "   \n",
            lambda f: " ".join(f) + "\r\n",
            lambda f: "\t  " + " ".join(f) + "\n",
            lambda f: "# note = x\n" + " ".join(f) + "\n",
            lambda f: " ".join(f) + "\n\n  \n",
        )
        lines = text.splitlines(keepends=True)
        for j, layout in edits.items():
            if j < len(lines) and not lines[j].startswith("#"):
                lines[j] = layouts[layout](lines[j].split())
        return "".join(lines)

    @given(edits=st.dictionaries(st.integers(0, 400), st.integers(0, 5), max_size=12),
           block_bytes=st.sampled_from([64, 200, 512, 1000]))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_reader_layouts_agree(self, edits, block_bytes):
        rounds = run_session(400, SourceConfig(detection_efficiency=0.7),
                             NO_EVE, PartyConfig(), PartyConfig(), seed=23)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(transcript, "_READ_BLOCK_BYTES", block_bytes)
            plain, edited = os.path.join(tmp, "plain.txt"), os.path.join(tmp, "edited.txt")
            list(transcribe(plain, [rounds], header={"seed": 23}))
            with open(plain) as fh, open(edited, "w", newline="") as out:
                out.write(self._edited(fh.read(), edits))
            fixed, general = [], []
            parse_fixed, parse_lines = transcript._parse_fixed, transcript._parse_lines
            mp.setattr(transcript, "_parse_fixed",
                       lambda *args: fixed.append(parse_fixed(*args)) or fixed[-1])
            mp.setattr(transcript, "_parse_lines",
                       lambda *args: general.append(args[0]) or parse_lines(*args))
            results = []
            for path in (plain, edited):
                header = {}
                chunks = list(iter_transcript(path, header))
                results.append((protocol._concat(chunks)._columns(), header))
        (cols1, header1), (cols2, header2) = results
        assert header1 == {"seed": "23"}
        assert header2 == ({"seed": "23", "note": "x"} if 4 in edits.values() else header1)
        for c1, c2, c0 in zip(cols1, cols2, rounds._columns()):
            assert c1.dtype == c2.dtype == c0.dtype
            assert np.array_equal(c1, c0) and np.array_equal(c2, c0)
        # both paths run: the header lines alone and each block with an edited
        # line take the general path, the rest the fixed one (an inserted
        # comment line that starts a block is split off like the header)
        edited = {layout for j, layout in edits.items() if j}
        assert general[0] == b"# seed = 23\n" and any(r is not None for r in fixed)
        assert any(r is None for r in fixed) == bool(edited) or edited == {4}

    DAMAGE = ("id digit", "separator", "field", "outcome", "detected", "newline")

    @staticmethod
    def _damaged(text, j, kind, pick):
        """``text`` with one byte of line ``j``, a round line in the writer's
        layout, replaced: ``kind`` names the byte's class, and ``pick``
        chooses the byte and its replacement within that class."""
        lines = text.splitlines(keepends=True)
        line = lines[j]
        spaces = [k for k, c in enumerate(line) if c == " "]
        starts = [0] + [k + 1 for k in spaces]      # id, sa, oa, sb, ob, detected
        if kind == "id digit":
            at, new = pick % spaces[0], "x9"[pick % 2]
        elif kind == "separator":
            at, new = spaces[pick % 5], "\tx"[pick % 2]
        elif kind == "field":
            at, new = starts[1 + pick % 4], "./4"[pick % 3]
        elif kind == "outcome":                     # '-' if detected, '0' if not
            at = starts[2 + 2 * (pick % 2)]
            new = "-" if line[starts[5]] == "1" else "0"
        elif kind == "detected":
            at, new = starts[5], "2"
        else:                                       # the newline dropped or doubled
            at, new = len(line) - 1, "\n\n" if pick % 2 else ""
        lines[j] = line[:at] + new + line[at + 1:]
        return "".join(lines)

    @staticmethod
    def _read_outcome(path):
        """The error message reading ``path`` raises, or its rounds and header."""
        header = {}
        try:
            columns = protocol._concat(list(iter_transcript(path, header)))._columns()
        except ValidationError as exc:
            return str(exc)
        return [(c.dtype, c.tolist()) for c in columns], header

    @given(j=st.integers(1, 300), kind=st.sampled_from(DAMAGE), pick=st.integers(0, 11),
           first_id=st.sampled_from([0, 9_800, 99_999_800, 10**18 - 400]),
           block_bytes=st.sampled_from([64, 200, 1000, 1 << 18]))
    # on the last line, which no later id checks and which is detected: an
    # 'x' for the odd first digit of a 3-, 5- and 9-digit id, read alone,
    # and a '/' (the byte before '0') for outcome_a
    @example(j=300, kind="id digit", pick=0, first_id=0, block_bytes=1 << 18)
    @example(j=300, kind="id digit", pick=0, first_id=9_800, block_bytes=200)
    @example(j=300, kind="id digit", pick=0, first_id=99_999_800, block_bytes=1000)
    @example(j=300, kind="field", pick=1, first_id=10**18 - 400, block_bytes=64)
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    def test_reader_damaged_writer_layout_falls_back(self, j, kind, pick, first_id,
                                                      block_bytes):
        # ids of 1-3, 4-5, 8-9 or 18 digits, so the damage meets odd and even
        # widths, width changes and the first, middle and last line of a block
        session = run_session(300, SourceConfig(detection_efficiency=0.7),
                              NO_EVE, PartyConfig(), PartyConfig(), seed=24)
        rounds = Rounds(session.round_id + first_id, *session._columns()[1:])
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(transcript, "_READ_BLOCK_BYTES", block_bytes)
            path = os.path.join(tmp, "t.txt")
            list(transcribe(path, [rounds], header={"seed": 24}))
            with open(path) as fh:
                text = self._damaged(fh.read(), j, kind, pick)
            with open(path, "w", newline="") as out:
                out.write(text)
            read = self._read_outcome(path)
            mp.setattr(transcript, "_parse_fixed", lambda data, prev_id: None)
            general = self._read_outcome(path)
        assert read == general
        assert isinstance(read, str) or kind in ("separator", "newline", "id digit")

    @pytest.mark.parametrize("bad, message", [
        ("5 9 7 1 0 1", "setting_a '9' is not 1, 2 or 3"),
        ("25000 1 - 1 0 1", "outcome_a '-' must be 0, 1 or 2 when detected is 1"),
        ("24998 1 0 1 0 1", "round_id 24998 does not exceed the previous round_id 24998"),
        ("25000 1 0 1 0 2", "detected '2' is not 0 or 1"),
        ("25000 1 1 1 0 0", "outcome_a '1' must be '-' when detected is 0"),
        ("25000 1 0 1 3 1", "outcome_b '3' must be 0, 1 or 2 when detected is 1"),
        ("24999x1 0 1 0 1", "expected 6 fields, got 5"),
        ("2499x 1 0 1 0 1", "round_id '2499x' is not a non-negative integer of at most 18 digits"),
    ])
    def test_reader_fault_deep_in_writer_layout(self, tmp_path, bad, message):
        n = 30_000
        lines = ["# seed = 1\n"] + [
            f"{i} {1 + i % 3} {i % 3} {1 + i // 3 % 3} {i // 9 % 3} 1\n" for i in range(n)]
        lines[25_000] = bad + "\n"
        path = tmp_path / "t.txt"
        path.write_text("".join(lines))
        assert path.stat().st_size > transcript._READ_BLOCK_BYTES
        with pytest.raises(ValidationError) as info:
            list(iter_transcript(path))
        assert str(info.value) == f"{path}:25001: {message}"

    # writer-layout rows 0 .. 999 after a header; line k holds round k - 3
    HEADED = "# seed = 1\n# rounds = 1000\n" + "".join(
        f"{i} {1 + i % 3} {i % 3} {1 + i // 3 % 3} {i // 9 % 3} 1\n" for i in range(1000))
    FIRST_BLOCK_FAULTS = {
        "first row": ("0 1 0 1 0 2", 3, "detected '2' is not 0 or 1"),
        "deep": ("700 1 7 1 0 1", 703, "outcome_a '7' must be 0, 1 or 2 when detected is 1"),
        "fields": ("700 1 0 1", 703, "expected 6 fields, got 4"),
        "comment then id": ("# mid = 2\n5 1 0 1 0 1", 704,
                            "round_id 5 does not exceed the previous round_id 699"),
        "indented comment": ("  # x\n700 1 0 1 0 1 1", 704, "expected 6 fields, got 7"),
    }

    @pytest.mark.parametrize("block_bytes", [None, 1, 100])
    @pytest.mark.parametrize("case", sorted(FIRST_BLOCK_FAULTS))
    def test_reader_first_block_fault_after_header(self, tmp_path, monkeypatch, case,
                                                    block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(transcript, "_READ_BLOCK_BYTES", block_bytes)
        bad, line, message = self.FIRST_BLOCK_FAULTS[case]
        lines = self.HEADED.splitlines(keepends=True)
        row = 2 + (0 if case == "first row" else 700)
        lines[row] = bad + "\n"
        path = tmp_path / "t.txt"
        path.write_text("".join(lines))
        with pytest.raises(ValidationError) as info:
            list(iter_transcript(path))
        assert str(info.value) == f"{path}:{line}: {message}"
