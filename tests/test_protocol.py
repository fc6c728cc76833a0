import dataclasses
import hashlib
import io
import itertools
import os
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    code_law_reference,
    intercept_resend_bruteforce,
    invert_reference,
    random_basis,
    session_columns_reference,
    split_reference,
)
from scipy.stats import chi2

from qutrit_qkd import bell, cli, linalg, protocol, transcript
from qutrit_qkd.linalg import (
    MixedState,
    ValidationError,
    diagonal_state,
    normalize_coefficients,
    orthonormality_residual,
)
from qutrit_qkd.protocol import (
    SWAP_12,
    EveConfig,
    InsufficientDataError,
    Party,
    PartyConfig,
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
    security_verdict,
    sift,
)
from qutrit_qkd.transcript import iter_transcript, transcribe

IDEAL = SourceConfig()
NO_EVE = EveConfig()


def columns(code, ids=None):
    """The six transcript columns of the round codes ``code`` (round_id,
    setting_a, outcome_a, setting_b, outcome_b, detected), decoded by ``divmod``:
    code = 10 * (3 * (setting_a - 1) + setting_b - 1) + (3 * outcome_a +
    outcome_b, or 9 if undetected).  Outcomes are -1 on undetected rounds.
    The ids are ``ids``, or else the rounds' positions, as the writer numbers them."""
    pair, outcomes = np.divmod(code.astype(np.int64), 10)
    sa, sb = np.divmod(pair, 3)
    oa, ob = np.divmod(outcomes, 3)
    det = outcomes < 9
    ids = np.arange(len(code), dtype=np.int64) if ids is None else ids
    return (ids, (1 + sa).astype(np.int8), np.where(det, oa, -1).astype(np.int8),
            (1 + sb).astype(np.int8), np.where(det, ob, -1).astype(np.int8), det)


def joined(chunks):
    """The chunks' round codes in order, as one array (uint8, if there are none)."""
    return np.concatenate([np.zeros(0, dtype=np.uint8), *chunks])


def whole_session(n, source, eve, a, b, seed):
    """A seeded session's round codes in memory: the chunks of ``iter_session``
    joined, for tests that read rounds rather than estimates or keys."""
    return joined(iter_session(n, source, eve, a, b, seed))


def read_transcript(path, header=None):
    """The round codes ``iter_transcript`` yields for ``path``, joined; their
    ids are their positions."""
    return joined(iter_transcript(path, header))


def parse_rows(data, first_id, line0=0):
    """The round codes of ``data``, round lines from id ``first_id`` on that
    follow ``line0`` lines in the file "t", as the reader reads them: one
    span of ``_spans`` at a time, each parsed by ``_parse_fixed``."""
    return joined(transcript._read_rows(io.BytesIO(data), first_id, "t", line0))


def piped(path, data, piece):
    """``path`` holding ``data``: a file, or with ``piece`` a named pipe that
    a thread fills ``piece`` bytes at a time, so the reader's reads meet the
    bytes as they arrive and its one short read is at the end."""
    path.unlink(missing_ok=True)
    if piece is None:
        path.write_bytes(data)
        return path
    os.mkfifo(path)

    def fill():
        try:
            with open(path, "wb", buffering=0) as fh:
                for at in range(0, len(data), piece):
                    fh.write(data[at:at + piece])
        except BrokenPipeError:         # the reader stopped at a fault
            pass

    threading.Thread(target=fill, daemon=True).start()
    return path


def key_counts(cells):
    """A count tensor with only key rounds: ``cells[(outcome_a, outcome_b)]`` of each."""
    counts = np.zeros((3, 3, 3, 3), dtype=np.int64)
    for (oa, ob), k in cells.items():
        counts[2, oa, 2, ob] = k
    return counts


def count_calls(monkeypatch, fn) -> list:
    """A list that grows by one at each call of ``fn``, counted under every name
    the package's modules bind it by, or on its class if it is a classmethod."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    if isinstance(getattr(fn, "__self__", None), type):
        monkeypatch.setattr(fn.__self__, fn.__name__, staticmethod(counted))
        return calls
    for name, module in list(sys.modules.items()):
        if name.startswith("qutrit_qkd."):
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class WordSource:
    """Stands in for ``np.random.PCG64``: every generator built from it hands out
    ``words`` from the first on, and ``taken`` collects the (start, stop) ranges
    that all of them hand out, in order."""

    def __init__(self, words):
        self.words, self.taken = np.asarray(words, dtype=np.uint64), []

    def __call__(self, seed):
        source, at = self, 0

        class Generator:
            def random_raw(self, size):
                nonlocal at
                source.taken.append((at, at + size))
                at += size
                return source.words[at - size:at].copy()

            def advance(self, delta):
                nonlocal at
                at += delta
                return self

        return Generator()


def counted_words(monkeypatch) -> list:
    """A list that gets the size of every ``random_raw`` call of the PCG64
    generators built from now on, which are real ones."""
    sizes, real = [], np.random.PCG64

    class Counting:
        def __init__(self, seed):
            self.bits = real(seed)

        def random_raw(self, size):
            sizes.append(size)
            return self.bits.random_raw(size)

        def advance(self, delta):
            self.bits.advance(delta)
            return self

    monkeypatch.setattr(np.random, "PCG64", Counting)
    return sizes


def forced_parties(setting_a, setting_b):
    probs_a = tuple(1.0 if s == setting_a else 0.0 for s in (1, 2, 3))
    probs_b = tuple(1.0 if s == setting_b else 0.0 for s in (1, 2, 3))
    return (PartyConfig(setting_probabilities=probs_a),
            PartyConfig(setting_probabilities=probs_b))


def assert_same_mixture(got, want):
    """``got`` and ``want`` hold the same arrays, weights and white noise, bit for bit."""
    for name in ("psis", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert not a.flags.writeable
    assert type(got.white_noise_weight) is type(want.white_noise_weight)
    assert got.white_noise_weight == want.white_noise_weight
    assert len(got.components) == len(want.components)
    for (w, state), (w0, state0) in zip(got.components, want.components):
        assert type(w) is type(w0) is float and w == w0
        assert state.tobytes() == state0.tobytes()


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

    def test_source_faults_reported_in_field_order(self):
        faults = {"coefficients": (1, -1, 1), "visibility": 2.0, "background_fraction": -1.0,
                  "detection_efficiency": 0.0, "key_crosstalk": 2.0}
        for i, name in enumerate(faults):
            with pytest.raises(ValidationError, match=f"^{name} must"):
                SourceConfig(**dict(list(faults.items())[i:]))

    def test_mixture_holds_the_schmidt_form(self):
        c, _ = normalize_coefficients(protocol.REFERENCE_COEFFICIENTS)
        source = SourceConfig(protocol.REFERENCE_COEFFICIENTS, visibility=0.9,
                              background_fraction=0.1)
        assert np.array_equal(source.mixture.psis, [np.diag(c)])
        assert source.mixture.weights.tolist() == [0.9 * (1 - 0.1)]
        assert source.mixture.white_noise_weight == 1 - 0.9 * (1 - 0.1)
        for array in (source.mixture.psis, source.mixture.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            source.mixture = None
        background_only = SourceConfig(background_fraction=1.0).mixture
        assert background_only.components == () and background_only.white_noise_weight == 1.0

    def test_party_probabilities(self):
        with pytest.raises(ValidationError):
            PartyConfig(setting_probabilities=(0.5, 0.5, 0.5))

    def test_eve_arm(self):
        with pytest.raises(ValidationError):
            EveConfig(enabled=True, arm="C")
        with pytest.raises(ValidationError):
            EveConfig(enabled=True, basis=np.full((3, 3), np.nan, dtype=complex))

    def test_eve_basis_checked_to_the_tolerance_of_its_collapse(self):
        # residual 8.0e-11 passes ORTHO_TOL, but would collapse to states of norm^2
        # 1 + 8e-11: the fault is named at EveConfig, not mid-session
        basis = np.eye(3, dtype=complex)
        basis[0, 0] = 1 + 4e-11
        with pytest.raises(ValidationError, match=r"^eve basis orthonormality residual 8\.000e-11"):
            EveConfig(enabled=True, basis=basis)
        qr_basis = random_basis(np.random.default_rng(31))
        eve = EveConfig(enabled=True, arm="B", basis=qr_basis)
        assert eve.basis is not qr_basis and np.array_equal(eve.basis, qr_basis)
        with pytest.raises(ValueError, match="read-only"):
            eve.basis[0, 0] = 0.0
        assert run_protocol(300, IDEAL, eve, seed=31).n_rounds == 300

    @pytest.mark.parametrize("arm", ["A", "B"])
    def test_eve_tolerance_keeps_the_worst_collapse_checkable(self, arm):
        # B = sqrt(I + r J), J all ones, has residual r, and moves the total of
        # Eve's outcome probabilities by 3 r for a state whose intercepted arm is
        # (1, 1, 1) / sqrt(3): under NORM_TOL, but not under the tolerance, fails
        u = np.ones(3) / np.sqrt(3)
        psi = np.outer(u, [1, 0, 0]) if arm == "A" else np.outer([1, 0, 0], u[SWAP_12])
        mixed = MixedState.pure(psi.astype(complex))
        for r, accepted in ((0.9 * protocol._EVE_TOL, True), (0.9e-12, False)):
            w, v = np.linalg.eigh(np.eye(3) + r * np.ones((3, 3)))
            basis = ((v * np.sqrt(w)) @ v.T).astype(complex)
            assert orthonormality_residual(basis) == pytest.approx(r, rel=1e-2)
            if not accepted:
                with pytest.raises(ValidationError, match="^eve basis"):
                    EveConfig(enabled=True, arm=arm, basis=basis)
                continue
            got = post_eve_mixture(mixed, EveConfig(enabled=True, arm=arm, basis=basis))
            MixedState(components=got.components, white_noise_weight=got.white_noise_weight)

    def test_default_eve_basis_not_rechecked(self, monkeypatch):
        checked = count_calls(monkeypatch, linalg.require_orthonormal)
        run_protocol(300, IDEAL, EveConfig(enabled=True, arm="B"), seed=32)
        assert len(checked) == 0
        basis = EveConfig(enabled=True).basis
        assert np.array_equal(basis, np.eye(3)) and basis.dtype == complex
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 0.0

    @pytest.mark.parametrize("visibility", [0.0, 0.69, 1.0])
    @pytest.mark.parametrize("background", [0.0, 0.25])
    def test_mixture_is_the_public_build_bit_for_bit(self, visibility, background):
        mixture = SourceConfig(protocol.REFERENCE_COEFFICIENTS, visibility=visibility,
                               background_fraction=background).mixture
        assert_same_mixture(mixture, MixedState(components=mixture.components,
                                                white_noise_weight=mixture.white_noise_weight))

    @pytest.mark.parametrize("basis, message", [
        (np.ones((2, 3)), "basis must have shape (3, 3), got shape (2, 3)"),
        (np.eye(2), "basis must have shape (3, 3), got shape (2, 2)"),
        (np.eye(4)[:3], "basis must have shape (3, 3), got shape (3, 4)"),
        (np.ones(3), "basis must have shape (3, 3), got shape (3,)"),
        (np.full((3, 3), "a"), "basis must be numeric, got dtype <U1"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, "x"]], "basis must be numeric, got dtype <U21"),
    ], ids=["2x3", "2x2", "3x4-orthonormal-rows", "vector", "str", "x-entry"])
    @pytest.mark.parametrize("build", [
        lambda basis: bell.SettingsPair(basis, np.eye(3), np.eye(3), np.eye(3)),
        lambda basis: EveConfig(enabled=True, basis=basis),
    ], ids=["SettingsPair", "EveConfig"])
    def test_basis_shape_checked(self, build, basis, message):
        # three orthonormal rows of length 4 pass the residual test alone, and
        # a 3x3 basis of strings would end in numpy's conjugate of strings
        with pytest.raises(ValidationError) as info:
            build(basis)
        assert str(info.value) == message

    def test_biased_parties(self):
        a, b = PartyConfig((0.25, 0.25, 0.5)), PartyConfig((0.2, 0.2, 0.6))
        assert a.setting_probabilities == (0.25, 0.25, 0.5)
        assert b.setting_probabilities == (0.2, 0.2, 0.6)

    @pytest.mark.parametrize("build", [
        bell.canonical_settings,
        lambda: bell.optimize_s3(diagonal_state((1.0, 1.0, 1.0)), restarts=1),
        lambda: bell.optimize_gamma_family(restarts=1),
        lambda: SourceConfig(visibility=0.9).mixture,
        lambda: EveConfig(enabled=True),
        lambda: protocol.session_law(SourceConfig()),
    ], ids=["SettingsPair", "OptimizeResult", "GammaOptimum", "MixedState", "EveConfig",
            "SessionLaw"])
    def test_array_holders_compare_by_identity(self, build):
        # value equality over numpy fields is ambiguous: these compare and hash by identity
        first, second = build(), build()
        assert first == first and first != second
        assert len({first, second, first}) == 2


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
        want_b = (s.b1, s.b2, np.eye(3)[SWAP_12])
        for rows, want in ((protocol._ROWS_A, want_a), (protocol._ROWS_B, want_b)):
            for block, basis in zip(rows.reshape(3, 3, 3), want):
                assert np.array_equal(block, basis)

    def test_ideal_session_reaches_quantum_max(self):
        assert exact_session_s3(SourceConfig()) == pytest.approx(bell.QUANTUM_MAX, abs=1e-12)


class TestSampleRound:
    def test_key_setting_support(self):
        parties = forced_parties(3, 3)
        _, _, oa, _, ob, det = columns(whole_session(500, IDEAL, NO_EVE, *parties, seed=1))
        assert det.all()
        seen = set(zip(oa.tolist(), ob.tolist()))
        assert seen == {(0, 0), (1, 2), (2, 1)}

    def test_full_background_uniform(self):
        source = SourceConfig(background_fraction=1.0)
        parties = forced_parties(3, 3)
        _, _, oa, _, ob, _ = columns(whole_session(9000, source, NO_EVE, *parties, seed=2))
        counts = np.zeros((3, 3))
        np.add.at(counts, (oa, ob), 1)
        # each of the 9 pairs expected 1000 times; 5 sigma binomial band
        sigma = np.sqrt(9000 * (1 / 9) * (8 / 9))
        assert np.all(np.abs(counts - 1000) < 5 * sigma)

    def test_eve_computational_preserves_key_support(self):
        eve = EveConfig(enabled=True, arm="B")
        parties = forced_parties(3, 3)
        _, _, oa, _, ob, _ = columns(whole_session(500, eve=eve, source=IDEAL, a=parties[0],
                                                   b=parties[1], seed=3))
        for pair in zip(oa.tolist(), ob.tolist()):
            assert pair in {(0, 0), (1, 2), (2, 1)}

    def test_undetected_has_no_outcomes(self):
        source = SourceConfig(detection_efficiency=0.05)
        parties = forced_parties(3, 3)
        _, _, oa, _, ob, det = columns(whole_session(100, source, NO_EVE, *parties, seed=4))
        undetected = ~det
        assert undetected.any() and np.all(oa[undetected] == -1) \
            and np.all(ob[undetected] == -1)


class TestPostEveMixture:
    def test_computational_eve_collapse_enumeration(self):
        psi = diagonal_state((0.642, 0.546, 0.539))
        mixed = post_eve_mixture(MixedState.pure(psi), EveConfig(enabled=True, arm="B"))
        # collapse onto |00>, |11>, |22> with the squared coefficients
        expected = {(k, k): abs(psi[k, k]) ** 2 for k in range(3)}
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
            mixed = post_eve_mixture(SourceConfig(visibility=0.8).mixture, eve)
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

    @pytest.mark.parametrize("arm", ["A", "B"])
    def test_matches_bruteforce_collapse(self, arm):
        rng = np.random.default_rng(7)
        psi = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        # b = 0: in the computational basis one outcome of the first component
        # has probability 0 and is dropped
        mixed = MixedState(components=((0.5, diagonal_state((0.642, 0.0, 0.539))),
                                       (0.3, psi / np.linalg.norm(psi))),
                           white_noise_weight=0.2)
        for basis in [np.eye(3, dtype=complex)] + [random_basis(rng) for _ in range(20)]:
            got = post_eve_mixture(mixed, EveConfig(enabled=True, arm=arm, basis=basis))
            # Eve's basis is in the lab's labels, the mixture in Schmidt labels
            relabeled = basis[:, SWAP_12] if arm == "B" else basis
            want, white = intercept_resend_bruteforce(mixed.components,
                                                      mixed.white_noise_weight, relabeled, arm)
            assert len(got.components) == len(want) >= 5
            for (w, state), (w0, state0) in zip(got.components, want):
                assert abs(w - w0) <= 1e-12
                assert np.max(np.abs(state - state0)) <= 1e-12
            assert got.white_noise_weight == white

    @pytest.mark.parametrize("arm", ["A", "B"])
    def test_results_pass_the_public_checks(self, arm):
        # the collapse is built unchecked: rebuilt through MixedState's own checks,
        # every result on this class's grid passes and comes back bit for bit
        rng = np.random.default_rng(8)
        psi = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        mixtures = [MixedState.pure(diagonal_state((0.642, 0.546, 0.539))),
                    SourceConfig(visibility=0.8).mixture, IDEAL.mixture,
                    MixedState(components=((0.5, diagonal_state((0.642, 0.0, 0.539))),
                                           (0.3, psi / np.linalg.norm(psi))),
                               white_noise_weight=0.2),
                    MixedState(white_noise_weight=1.0)]
        for basis in [None, np.eye(3, dtype=complex)] + [random_basis(rng) for _ in range(10)]:
            eve = EveConfig(enabled=True, arm=arm, basis=basis)
            for mixed in mixtures:
                got = post_eve_mixture(mixed, eve)
                assert_same_mixture(got, MixedState(components=got.components,
                                                    white_noise_weight=got.white_noise_weight))

    def test_white_noise_invariant(self):
        eve = EveConfig(enabled=True, arm="B")
        mixed = post_eve_mixture(MixedState(white_noise_weight=1.0), eve)
        assert mixed.white_noise_weight == 1.0
        assert len(mixed.components) == 0


class TestRunSession:
    def test_deterministic(self):
        a, b = PartyConfig(), PartyConfig()
        r1 = whole_session(4000, IDEAL, NO_EVE, a, b, seed=42)
        r2 = whole_session(4000, IDEAL, NO_EVE, a, b, seed=42)
        for c1, c2 in zip(columns(r1), columns(r2)):
            assert np.array_equal(c1, c2)

    def test_zero_rounds_rejected(self):
        a, b = PartyConfig(), PartyConfig()
        with pytest.raises(ValidationError):
            iter_session(0, IDEAL, NO_EVE, a, b, seed=1)

    @pytest.mark.parametrize("entry", ["run_protocol", "iter_session"])
    @pytest.mark.parametrize("n_rounds, seed, message", [
        (1e3, 0, "n_rounds must be a positive integer, got 1000.0"),
        ("300", 0, "n_rounds must be a positive integer, got '300'"),
        (-5, 0, "n_rounds must be a positive integer, got -5"),
        (300, -1, "seed must be a non-negative integer, got -1"),
        (300, 1.5, "seed must be a non-negative integer, got 1.5"),
        (300, np.int64(-2), "seed must be a non-negative integer, got "),
        (np.int64(300), np.uint8(5), None),
        (True, 0, "n_rounds must be a positive integer, got True"),
        (300, True, "seed must be a non-negative integer, got True"),
    ])
    def test_arguments_checked_before_any_table(self, monkeypatch, entry, n_rounds, seed,
                                                message):
        a, b = PartyConfig(), PartyConfig()
        want = run_protocol(300, seed=5)
        law = protocol.session_law
        built = []
        monkeypatch.setattr(protocol, "session_law", lambda *args: built.append(1) or law(*args))
        call = {"run_protocol": lambda: run_protocol(n_rounds, seed=seed),
                "iter_session": lambda: analyze(iter_session(n_rounds, IDEAL, NO_EVE, a, b,
                                                             seed=seed))}[entry]
        if message is None:
            got = call()
            assert np.array_equal(got.counts, want.counts)
            assert np.array_equal(got.key_a, want.key_a) and got.s3_estimate == want.s3_estimate
        else:
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value).startswith(message) and not built

    def test_setting_pair_frequencies(self):
        n = 200_000
        a, b = PartyConfig(), PartyConfig()
        _, setting_a, _, setting_b, _, _ = columns(whole_session(n, IDEAL, NO_EVE, a, b, seed=7))
        sigma = np.sqrt(n * (1 / 9) * (8 / 9))
        for sa in (1, 2, 3):
            for sb in (1, 2, 3):
                count = int(((setting_a == sa) & (setting_b == sb)).sum())
                assert abs(count - n / 9) < 5 * sigma


class TestSift:
    def test_partition_of_detected(self):
        a, b = PartyConfig(), PartyConfig()
        source = SourceConfig(detection_efficiency=0.5)
        rounds = whole_session(20_000, source, NO_EVE, a, b, seed=8)
        sifted = sift(rounds)
        _, sa, _, sb, _, det = columns(rounds)
        key = int((det & (sa == 3) & (sb == 3)).sum())
        bell_rounds = int((det & (sa <= 2) & (sb <= 2)).sum())
        mixed = int((det & ((sa == 3) != (sb == 3))).sum())
        assert (sifted.n_key, sifted.n_bell, sifted.n_discarded) == (key, bell_rounds, mixed)
        assert key + bell_rounds + mixed == int(det.sum())

    def test_fractions(self):
        key, bell_rounds, discarded = run_protocol(200_000, seed=9).sifted_fractions
        assert key == pytest.approx(1 / 9, abs=0.005)
        assert bell_rounds == pytest.approx(4 / 9, abs=0.01)
        assert discarded == pytest.approx(4 / 9, abs=0.01)

    def test_all_key_settings(self):
        parties = forced_parties(3, 3)
        rounds = whole_session(100, IDEAL, NO_EVE, *parties, seed=10)
        sifted = sift(rounds)
        assert sifted.n_key == 100
        assert sifted.n_bell == 0

    def test_matches_per_round_tally(self):
        a, b = PartyConfig((0.5, 0.2, 0.3)), PartyConfig((0.1, 0.4, 0.5))
        source = SourceConfig(detection_efficiency=0.5, visibility=0.8)
        session = whole_session(3000, source, NO_EVE, a, b, seed=23)
        # the session holds 87 of the 90 codes (setting pair (2, 1) is rare):
        # one round of each code follows it
        rounds = joined([session, np.arange(90, dtype=np.uint8)])
        assert set(rounds.tolist()) == set(range(90))
        sifted = sift(rounds)
        counts = np.zeros((3, 3, 3, 3), dtype=np.int64)
        key, bell_rounds, discarded = [], [], []
        _, setting_a, outcome_a, setting_b, outcome_b, detected = columns(rounds)
        for i, (sa, oa, sb, ob, det) in enumerate(zip(
                *(c.tolist() for c in (setting_a, outcome_a, setting_b, outcome_b, detected)))):
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
        key_mask = Party(setting_a, detected).sift_masks(setting_b)
        assert np.flatnonzero(key_mask).tolist() == key
        assert (sifted.n_key, sifted.n_bell, sifted.n_discarded) == (
            len(key), len(bell_rounds), len(discarded))
        assert sorted(key + bell_rounds + discarded) == np.flatnonzero(detected).tolist()
        assert key and bell_rounds and discarded
        assert sifted.key_a.tolist() == [int(outcome_a[i]) for i in key]
        relabel = {0: 0, 1: 2, 2: 1}
        assert sifted.key_b.tolist() == [relabel[int(outcome_b[i])] for i in key]

    def test_key_rows_are_the_code_run_80_to_88(self):
        # the codes on either side of the run, repeated: 79 - 80 wraps to 255
        # in uint8 and 89 - 80 is 9, so neither is a key row
        assert (protocol._KEY_LO, protocol._KEY_WIDTH) == (80, 9)
        code = np.tile(np.array([79, 80, 88, 89], dtype=np.uint8), 5)
        key_codes = np.tile([80, 88], 5)
        # codes held in a wider integer dtype are sifted the same way
        for dtype in (np.uint8, np.int64):
            sifted = sift(code.astype(dtype))
            assert sifted.key_a.tolist() == protocol._KEY_A[key_codes].tolist() == [0, 2] * 5
            assert sifted.key_b.tolist() == protocol._KEY_B[key_codes].tolist() == [0, 1] * 5
        with pytest.raises(ValidationError, match="round code 90"):
            sift(np.append(code, np.uint8(90)))

    def test_code_above_89_rejected(self):
        # and codes below 0 or not integers, refused before the histogram
        for code, message in [
                (np.array([0, 90, 89], dtype=np.uint8),
                 "round index 1: round code 90 is not from 0 to 89"),
                (np.array([-1, 3], dtype=np.int64),
                 "round index 0: round code -1 is not from 0 to 89"),
                (np.array([80.9, 3.2]), "round codes must be integers, got dtype float64"),
                (np.array([True, False]), "round codes must be integers, got dtype bool")]:
            with pytest.raises(ValidationError) as info:
                sift(code)
            assert str(info.value) == message

    def test_mixed_pair_discarded(self):
        parties = forced_parties(1, 3)
        rounds = whole_session(100, IDEAL, NO_EVE, *parties, seed=11)
        sifted = sift(rounds)
        assert sifted.n_discarded == 100


def estimate_s3_per_pair(counts):
    """The estimator as a loop over the four Bell pairs, the reference the
    stacked ``estimate_s3`` must equal bit for bit."""
    all_counts = np.asarray(counts, dtype=float)
    s3_total, variance = 0.0, 0.0
    for a, b in ((1, 1), (2, 1), (2, 2), (1, 2)):
        coeff = bell.S3_COEFFICIENTS[a - 1, :, b - 1, :]
        pair_counts = all_counts[a - 1, :, b - 1, :]
        total = pair_counts.sum()
        contribution = float((coeff * pair_counts).sum() / total)
        s3_total += contribution
        variance += float((pair_counts * ((coeff - contribution) / total) ** 2).sum())
    return s3_total, float(np.sqrt(variance))


_CALIBRATED = calibrate_noise()
# the four sources the verdict_sweep benchmark cycles through
SWEEP_SOURCES = (
    (IDEAL, NO_EVE),
    (SourceConfig(visibility=0.69), NO_EVE),
    (SourceConfig(coefficients=protocol.REFERENCE_COEFFICIENTS, visibility=_CALIBRATED[0],
                  key_crosstalk=_CALIBRATED[1]), NO_EVE),
    (IDEAL, EveConfig(enabled=True, arm="B")),
)


class TestEstimateS3:
    def test_converges_to_exact(self):
        result = run_protocol(100_000, seed=12)
        assert abs(result.s3_estimate - bell.QUANTUM_MAX) < 3 * result.s3_sigma

    def test_missing_pair_rejected(self):
        parties = forced_parties(1, 1)
        rounds = whole_session(1000, IDEAL, NO_EVE, *parties, seed=13)
        with pytest.raises(InsufficientDataError):
            estimate_s3(sift(rounds).counts)

    def test_count_tensor_shape_checked(self):
        with pytest.raises(ValidationError, match="shape"):
            estimate_s3(np.ones((2, 3, 2, 3)))

    @pytest.mark.parametrize("value", [-1, -1.0, np.inf, -np.inf, np.nan, 0.5])
    def test_malformed_counts_rejected(self, value):
        # one bad cell, in one member of a stack too, in an integer array (-1)
        # or a float one; checked before any arithmetic, so no RuntimeWarning
        # (an error under pytest) escapes.  Infinite and NaN counts are refused
        # by the finiteness check of every real array.
        counts = np.ones((3, 3, 3, 3), dtype=type(value))
        counts[2, 1, 0, 2] = value
        message = (f"^count {float(value)} is not a non-negative integer$" if np.isfinite(value)
                   else f"^counts must be finite, got {value}$")
        for given in (counts, np.stack((np.ones_like(counts), counts))):
            with pytest.raises(ValidationError, match=message):
                estimate_s3(given)
            with pytest.raises(ValidationError, match=message):
                qter(given)

    @pytest.mark.parametrize("counts", [np.full((3, 3, 3, 3), "2"), np.full((3, 3, 3, 3), b"2"),
                                        np.full((3, 3, 3, 3), 2 + 0j),
                                        np.full((3, 3, 3, 3), 2, dtype=object)],
                             ids=["str", "bytes", "complex", "object"])
    def test_count_dtype_checked(self, counts):
        # refused before any cast: strings would parse, complex lose its imaginary part
        for given in (counts, np.stack((counts, counts))):
            for estimator in (estimate_s3, qter):
                with pytest.raises(ValidationError, match=f"got dtype {counts.dtype}"):
                    estimator(given)

    def test_estimator_algebra_all_positive_cells(self):
        # counts placed only on each pair's positive-coefficient cells give
        # exactly +1 per pair, so S3 = 4 (an algebraic, non-physical check)
        codes = []
        positive_cells = {
            (1, 1): [(0, 0), (1, 1), (2, 2)],
            (2, 1): [(2, 0), (0, 1), (1, 2)],
            (2, 2): [(0, 0), (1, 1), (2, 2)],
            (1, 2): [(0, 0), (1, 1), (2, 2)],
        }
        for (sa, sb), cells in positive_cells.items():
            for (oa, ob) in cells:
                codes += [10 * (3 * (sa - 1) + sb - 1) + 3 * oa + ob] * 10
        s3_hat, sigma = estimate_s3(sift(np.array(codes, dtype=np.uint8)).counts)
        assert s3_hat == pytest.approx(4.0, abs=1e-12)
        assert sigma == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [300, 3000, 50_000])
    def test_matches_per_pair_loop(self, n):
        # bit for bit, S3 against the per-pair loop the stacked estimator
        # replaced and the QTER against the key arrays, over the four
        # verdict_sweep sources
        results = []
        for source, eve in SWEEP_SOURCES:
            for seed in range(40 if n < 50_000 else 6):
                try:
                    r = run_protocol(n, source, eve, seed=seed)
                except InsufficientDataError:
                    continue
                assert (r.s3_estimate, r.s3_sigma) == estimate_s3_per_pair(r.counts)
                assert r.qter == float(np.mean(r.key_a != r.key_b))
                assert r.n_key == len(r.key_a)
                results.append(r)
        s3_hat, sigma = estimate_s3(np.stack([r.counts for r in results]))
        assert s3_hat.tolist() == [r.s3_estimate for r in results]
        assert sigma.tolist() == [r.s3_sigma for r in results]
        assert qter(np.stack([r.counts for r in results])).tolist() == [r.qter for r in results]

    def test_visibility_tuned_to_reference(self):
        visibility = 2.688 / bell.QUANTUM_MAX
        result = run_protocol(300_000, source=SourceConfig(visibility=visibility), seed=14)
        assert abs(result.s3_estimate - 2.688) < 3 * result.s3_sigma

    def test_empirical_tables_chi_square(self):
        # pooled chi-square over the nine setting-pair tables at n = 1e5;
        # at least 99 of 100 seeded repetitions stay below the 99.9% quantile
        a, b = PartyConfig(), PartyConfig()
        tables = protocol.session_law(IDEAL).tables
        threshold = chi2.ppf(0.999, df=72)
        passes = 0
        for seed in range(100):
            _, sa, oa, sb, ob, _ = columns(whole_session(100_000, IDEAL, NO_EVE, a, b, seed=seed))
            # every round is detected; cell [sa - 1, oa, sb - 1, ob] of all 81
            cells = 27 * sa.astype(int) + 9 * oa + 3 * sb + ob - 30
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
        # settings (3, 3); outcome pairs (1, 2), (0, 0) and (2, 1)
        rounds = np.array([85, 80, 87], dtype=np.uint8)
        assert [c.tolist() for c in columns(rounds)[1:5]] == [
            [3, 3, 3], [1, 0, 2], [3, 3, 3], [2, 0, 1]]
        sifted = sift(rounds)
        key_a, key_b = sifted.key_a, sifted.key_b
        assert key_a.tolist() == [1, 0, 2]
        assert key_b.tolist() == [1, 0, 2]

    def test_ideal_qter_zero(self):
        parties = forced_parties(3, 3)
        rounds = whole_session(10_000, IDEAL, NO_EVE, *parties, seed=15)
        assert qter(sift(rounds).counts) == 0.0

    def test_qter_reference_fraction(self):
        # 150 key rounds, 14 of them in error: A's key trit 0 against B's
        # trits 0, 2 (outcome 1, relabelled) and 1 (outcome 2)
        counts = key_counts({(0, 0): 136, (0, 1): 9, (0, 2): 5})
        assert qter(counts) == 14 / 150
        assert qter(counts) == pytest.approx(0.0933, abs=5e-5)

    def test_qter_extremes_and_mismatch(self):
        matching = key_counts({(0, 0): 5, (1, 2): 7, (2, 1): 1})
        mismatching = key_counts({(0, 1): 2, (0, 2): 3, (1, 0): 1, (1, 1): 4, (2, 0): 2,
                                  (2, 2): 6})
        assert qter(matching) == 0.0
        assert qter(mismatching) == 1.0
        assert qter(np.stack((matching, mismatching))).tolist() == [0.0, 1.0]
        empty = np.ones((3, 3, 3, 3), dtype=np.int64)
        empty[2, :, 2, :] = 0
        with pytest.raises(InsufficientDataError, match="^cannot compute .* empty keys$"):
            qter(empty)
        with pytest.raises(InsufficientDataError, match="empty keys"):
            qter(np.stack((matching, empty)))

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

    def test_session_result_holds_its_verdict(self):
        r = run_protocol(3000, seed=4)
        verdict = security_verdict(r.s3_estimate, r.s3_sigma, r.qter)
        assert r.sigmas_above_classical == verdict.sigmas_above_classical
        assert r.secure == verdict.secure


def count_ensemble(rng, members, n_rounds, law):
    """Count tensors of ``members`` sessions of ``n_rounds`` rounds of the
    ``SessionLaw`` ``law``, drawn at once: rounds are i.i.d., so a session's
    cells are Multinomial(n, p) with p = setting probabilities x detection x
    the exact setting-pair tables, plus one undetected cell, which is dropped."""
    p = (law.settings_a[:, None, None, None] * law.settings_b[:, None] * law.detection
         * law.tables).ravel()
    draws = rng.multinomial(n_rounds, np.append(p, max(0.0, 1.0 - p.sum())), size=members)
    return draws[:, :81].reshape(members, 3, 3, 3, 3)


class TestCountEnsembles:
    SOURCE = SourceConfig(coefficients=(0.642, 0.546, 0.539), visibility=0.8,
                          key_crosstalk=0.1, detection_efficiency=0.5)

    @pytest.mark.parametrize("eve", [NO_EVE, EveConfig(enabled=True, arm="A")])
    def test_matches_round_sampler(self, eve):
        # two-sample chi-square on the counts summed over 100 sessions of
        # 2000 rounds each way, the undetected rounds as an 82nd cell
        a, b = PartyConfig((0.2, 0.3, 0.5)), PartyConfig((0.25, 0.15, 0.6))
        n, members = 2000, 100
        law = protocol.session_law(self.SOURCE, eve, a, b)
        drawn = count_ensemble(np.random.default_rng(7), members, n, law)
        sampled = sum(sift(whole_session(n, self.SOURCE, eve, a, b, seed)).counts
                      for seed in range(members))
        cells = [np.append(c.ravel(), n * members - c.sum()) for c in (drawn.sum(axis=0), sampled)]
        both = cells[0] + cells[1]
        stat = float(((cells[0] - cells[1])[both > 0] ** 2 / both[both > 0]).sum())
        assert stat < chi2.ppf(0.999, df=np.count_nonzero(both) - 1)

    def test_stack_equals_member_calls(self):
        # the reference profile: about 15 Bell and 4 key rounds per session
        counts = count_ensemble(np.random.default_rng(8), 3000, 300,
                                protocol.session_law(reference_source()))
        bell_totals = counts.swapaxes(2, 3)[:, :2, :2].sum(axis=(-2, -1)).reshape(-1, 4)
        empty = (bell_totals == 0)[:, [0, 2, 3, 1]]     # pairs (1,1), (2,1), (2,2), (1,2)
        first = ((1, 1), (2, 1), (2, 2), (1, 2))[int(np.argmax(empty.any(axis=0)))]
        assert empty.any()
        with pytest.raises(InsufficientDataError,
                           match=rf"^no rounds with setting pair \({first[0]}, {first[1]}\)$"):
            estimate_s3(counts)
        no_key = counts[:, 2, :, 2, :].sum(axis=(-2, -1)) == 0
        assert no_key.any()
        with pytest.raises(InsufficientDataError, match="empty keys"):
            qter(counts)
        kept = counts[~empty.any(axis=1) & ~no_key]
        assert len(kept) >= 2000
        s3_hat, sigma = estimate_s3(kept)
        assert s3_hat.tolist() == [estimate_s3(c)[0] for c in kept]
        assert sigma.tolist() == [estimate_s3(c)[1] for c in kept]
        assert qter(kept).tolist() == [qter(c) for c in kept]


class TestNoiseKnobs:
    def test_background_monotonically_decreases_s3(self):
        values = [exact_session_s3(SourceConfig(background_fraction=b))
                  for b in (0.0, 0.1, 0.2, 0.4, 0.8)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_calibration_hits_targets_exactly(self):
        source = reference_source()
        assert exact_session_s3(source) == pytest.approx(2.688, abs=1e-9)
        table = protocol.session_law(source).tables[2, :, 2, :]
        match = table[0, 0] + table[1, 2] + table[2, 1]
        assert 1.0 - match == pytest.approx(14 / 150, abs=1e-9)

    def test_calibration_rejects_unreachable(self):
        with pytest.raises(ValidationError):
            calibrate_noise(target_s3=3.0)
        with pytest.raises(ValidationError):
            calibrate_noise(target_s3=2.87, target_qter=0.7)  # above the 2/3 ceiling


class TestSessionLaw:
    def test_fields_are_read_only_copies(self):
        bias = [0.2, 0.3, 0.5]
        law = protocol.session_law(TestCountEnsembles.SOURCE, NO_EVE, PartyConfig(tuple(bias)))
        assert law.tables.shape == (3, 3, 3, 3)
        assert np.allclose(law.tables.sum(axis=(1, 3)), 1.0, rtol=0, atol=1e-12)
        assert law.settings_a.tolist() == bias and law.settings_b.tolist() == [1 / 3] * 3
        assert law.detection == 0.5
        for array in (law.tables, law.settings_a, law.settings_b):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        tables = law.tables.copy()
        copied = protocol.SessionLaw(tables, bias, bias, 1.0)
        tables[...] = 0.0
        bias[0] = 0.9
        assert np.array_equal(copied.tables, law.tables) and copied.settings_a[0] == 0.2


class TestProtocolSession:
    def test_one_normalization_and_one_count_check_per_session(self, monkeypatch):
        normalized = count_calls(monkeypatch, linalg.normalize_coefficients)
        checked = count_calls(monkeypatch, protocol._count_tensors)
        run_protocol(300, SourceConfig(visibility=0.69))
        assert (len(normalized), len(checked)) == (1, 1)

    def test_one_mixture_per_bell_command(self, monkeypatch, capsys):
        normalized = count_calls(monkeypatch, linalg.normalize_coefficients)
        built = count_calls(monkeypatch, MixedState.isotropic)
        assert cli.main(["bell", "--coefficients", "0.642,0.546,0.539"]) == 0
        assert len(built) == 1 and len(normalized) == 1

    def test_fractions_sum_to_detected(self):
        result = run_protocol(30_000, source=SourceConfig(detection_efficiency=0.4),
                              seed=17)
        assert sum(result.sifted_fractions) == pytest.approx(
            result.n_detected / result.n_rounds, abs=1e-12)

    def test_party_estimate_matches_omniscient(self):
        result = run_protocol(50_000, seed=18)
        sifted = sift(whole_session(50_000, IDEAL, NO_EVE, PartyConfig(), PartyConfig(), seed=18))
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
        return whole_session(n, self.SOURCE, self.EVE, a, b, seed=seed)

    @pytest.mark.parametrize("n", [1, C - 1, C, C + 1, 2 * C + 7])
    def test_matches_reference_oracle(self, n):
        tables = protocol.session_law(self.SOURCE, self.EVE).tables
        expected = session_columns_reference(n, tables, self.BIAS_A, self.BIAS_B, 0.4, seed=n)
        got = columns(self.session(n, seed=n))
        for col, want in zip(got, expected):
            assert col.dtype == want.dtype
            assert np.array_equal(col, want)

    def test_chunk_sizes(self):
        a, b = PartyConfig(), PartyConfig()
        chunks = list(iter_session(2 * C + 7, IDEAL, NO_EVE, a, b, seed=3))
        assert [len(c) for c in chunks] == [C, C, 7]
        assert all(c.dtype == np.uint8 and c.ndim == 1 for c in chunks)

    def test_analyze_uneven_splits(self):
        rounds = self.session(C + 5000, seed=31)
        cuts = (0, 1, 1000, len(rounds))
        parts = [rounds[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
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

    def test_transcript_chunks(self, tmp_path):
        rounds = self.session(3000, seed=32)
        whole, split = tmp_path / "whole.txt", tmp_path / "split.txt"
        list(transcribe(whole, [rounds], header={"seed": 32}))
        list(transcribe(split, (rounds[:7], rounds[7:]), header={"seed": 32}))
        assert split.read_bytes() == whole.read_bytes()
        header = {}
        chunks = list(iter_transcript(split, header))
        assert header == {"seed": "32"} and len(chunks) > 1
        assert sum(len(c) for c in chunks) == len(rounds)
        loaded = read_transcript(split)
        assert np.array_equal(loaded, joined(chunks))
        for c1, c2 in zip(columns(loaded), columns(rounds)):
            assert np.array_equal(c1, c2)


K = protocol._BUCKETS
M = protocol._BUCKET_MIN_ROUNDS


class TestBucketLookup:
    # setting-pair outcome rows (9 cells) that, made into code laws, a bucket
    # table over [b/K, (b+1)/K) must not get wrong
    ODD_ROWS = (
        # zero-probability outcomes: equal edges
        (0.5, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0),
        # every edge exactly on a bucket edge k/K
        tuple(np.array([1, 2, 61, 64, 0, 0, 64, 64, 0]) * (K // 256) / K),
        # two distinct edges strictly inside the bucket [K/2, K/2 + 1)/K
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

    @classmethod
    def odd_laws(cls):
        """Code laws: ODD_ROWS row i as the whole law, on setting pair i at detection
        1, so that its cells are codes 10 * i to 10 * i + 8; then two laws whose
        sums reach past the last code of positive probability."""
        tables, one = cls.tables(range(4), seed=1), np.eye(3)
        laws = [protocol.SessionLaw(tables, one[i // 3], one[i % 3], 1.0) for i in range(4)]
        # after the fourth row's 1.0000000000000002, codes 40 to 48 of probability ~1e-21
        laws.append(dataclasses.replace(laws[3], settings_b=(1.0, 1e-20, 0.0)))
        # detection 1 on uniform settings: code 89 has probability 0 and the sums
        # end at 0.9999999999999994
        rows = np.random.default_rng(1).dirichlet(np.ones(9), size=9)
        laws.append(protocol.SessionLaw(rows.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3),
                                        (1 / 3,) * 3, (1 / 3,) * 3, 1.0))
        return laws

    def test_table_against_bruteforce(self):
        laws = self.odd_laws()
        probs = [code_law_reference(law.tables, law.settings_a, law.settings_b,
                                    law.detection)[0] for law in laws]
        sums = [np.cumsum(p) for p in probs]
        last = [max(np.flatnonzero(p)) for p in probs]
        # the odd laws are what they claim to be
        assert (np.diff(sums[0][:4]) == 0).any() and last[0] == 4
        assert np.array_equal(K * sums[1], np.round(K * sums[1]))
        assert np.floor(K * sums[2][20]) == np.floor(K * sums[2][21]) == K // 2 \
            and sums[2][20] < sums[2][21]
        assert sums[4][33] > 1.0 and last[3] == 33 and last[4] == 48
        assert sums[5][-1] < 1.0 and probs[5][89] == 0.0 and last[5] == 88
        low, high = np.arange(K) / K, np.arange(1, K + 1) / K
        marks = []
        for law, p, s, end in zip(laws, probs, sums, last):
            table = protocol._bucket_table(protocol._code_edges(law))
            edges = s[:end, None]
            split = ((edges > low) & (edges < high)).any(axis=0)
            assert np.array_equal(table, np.where(split, -1, invert_reference(low, p)))
            marks.append((table == -1).sum())
        # split buckets: K/2 (two edges) and 3K/4 (0.75 + 0.7/K) in the third law;
        # 0.2, 0.6000000000000001 and 0.9 in the fifth, whose later sums all lie
        # above every bucket; the sixth's 80 distinct edges below code 88
        assert marks == [0, 0, 2, 3, 3, 80]

    @pytest.mark.parametrize("n", [M - 1, M, C + 1])
    def test_edge_uniforms_on_both_paths(self, n, monkeypatch):
        """u = 0, u = 1 - 2**-53, and the 53-bit grid points at or above each
        edge and just below it, fed to the sampler as PCG64 words on the
        searchsorted path (M - 1 rounds), the bucket path (M) and across a chunk
        edge (C + 1): each draws the code of the running-sum oracle, never one of
        probability 0, and the sampler reads every word once: the key words,
        then one per round whose bucket a sum splits, in round order."""
        # the odd laws, and one whose sums 2**-17 and 1 - 2**-17 lie inside the
        # first and the last bucket
        rows = np.eye(9)[[0] * 9]
        rows[0, :3] = 2.0 ** -17, 1 - 2.0 ** -16, 2.0 ** -17
        one = (1.0, 0.0, 0.0)
        ends = protocol.SessionLaw(rows.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3), one, one, 1.0)
        n_split = []
        for law in [*self.odd_laws(), ends]:
            probs = code_law_reference(law.tables, law.settings_a, law.settings_b,
                                       law.detection)[0]
            edges = np.cumsum(probs)
            at = np.ceil(edges[(edges > 0) & (edges < 1)] * 2.0 ** 53)
            grid = np.concatenate(([0.0, 2.0 ** 53 - 1], at, at - 1)).astype(np.uint64)
            grid = np.resize(grid, n)
            key = grid >> np.uint64(37)
            # the unused quarters of the last key word, and the low 27 bits of
            # each extra word, are set to show that they are not read
            quarters = np.full(4 * -(-n // 4), 0xFFFF, dtype=np.uint64)
            quarters[:n] = key
            words = np.zeros(len(quarters) // 4, dtype=np.uint64)
            for j in range(4):
                words |= quarters[j::4] << np.uint64(16 * j)
            split = split_reference(key, probs)
            low = grid[split] & np.uint64(2 ** 37 - 1)
            extra = (low << np.uint64(27)) | np.uint64(2 ** 27 - 1)
            source = WordSource(np.concatenate((words, extra)))
            monkeypatch.setattr(np.random, "PCG64", source)
            code = joined(protocol._sample_chunks(n, 0, law))
            u = grid * 2.0 ** -53
            assert np.array_equal(code, invert_reference(u, probs))
            assert (np.array(probs)[code] > 0).all()
            spans = sorted(source.taken)
            assert [a for a, _ in spans] == [0] + [b for _, b in spans[:-1]]
            assert spans[-1][1] == len(source.words)
            n_split.append(int(split.sum()))
        # the first two laws' sums all lie on bucket edges, the others' not
        assert [k > 0 for k in n_split] == [False, False, True, True, True, True, True]

    @given(n=st.sampled_from([1, M - 1, M, C - 1, C, C + 1]),
           pairs=st.permutations(range(9)),
           bias=st.sampled_from([(1 / 3, 1 / 3, 1 / 3), (0.2, 0.3, 0.5), (0.25, 0.15, 0.6)]),
           detection=st.sampled_from([1.0, 0.4]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def test_matches_reference_oracle(self, n, pairs, bias, detection, seed):
        tables = self.tables(pairs[:4], seed)
        expected = session_columns_reference(n, tables, bias, bias[::-1], detection, seed)
        law = protocol.SessionLaw(tables, bias, bias[::-1], detection)
        got = joined(protocol._sample_chunks(n, seed, law))
        for col, want in zip(columns(got), expected):
            assert col.dtype == want.dtype
            assert np.array_equal(col, want)


class TestDrawRule:
    """Four rounds' keys to a PCG64 word, and one more word for each round whose
    bucket an edge splits, after the session's key words, in round order."""

    LAW = protocol.session_law(TestChunkedSession.SOURCE, TestChunkedSession.EVE,
                               PartyConfig(TestChunkedSession.BIAS_A),
                               PartyConfig(TestChunkedSession.BIAS_B))

    @staticmethod
    def split_rounds(n, seed, law):
        """The rounds of a seeded session whose buckets an edge splits, by the oracle."""
        key = np.random.default_rng(seed).integers(0, 65536, size=n, dtype=np.uint16)
        probs = code_law_reference(law.tables, law.settings_a, law.settings_b,
                                   law.detection)[0]
        return np.flatnonzero(split_reference(key, probs))

    def test_chunk_size_does_not_change_draws(self, monkeypatch):
        n, seed = C + 4101, 8
        sessions = []
        for rows in (1 << 2, 1 << 12, 1 << 16):
            monkeypatch.setattr(protocol, "_SESSION_CHUNK_ROWS", rows)
            sessions.append(joined(protocol._sample_chunks(n, seed, self.LAW)))
        assert all(np.array_equal(session, sessions[0]) for session in sessions[1:])
        # split rounds fall in many 4096-round chunks, the first one included
        chunks = np.unique(self.split_rounds(n, seed, self.LAW) >> 12)
        assert chunks[0] == 0 and len(chunks) > 5

    def test_paths_agree_where_code_89_is_drawn(self, monkeypatch):
        """At detection 0.4 code 89 has positive probability, and a round that
        draws it lies above every edge.  The searchsorted path must not take
        such a round for a split one: both paths draw the same codes from the
        same words, the key words and one per split round."""
        words, n = counted_words(monkeypatch), M - 1
        for seed in range(20):
            runs = []
            for least in (M, 1):        # the searchsorted path, then the table
                monkeypatch.setattr(protocol, "_BUCKET_MIN_ROUNDS", least)
                before = len(words)
                runs.append((joined(protocol._sample_chunks(n, seed, self.LAW)),
                             sum(words[before:])))
            (short, short_words), (table, table_words) = runs
            assert (short == 89).any()
            assert np.array_equal(short, table)
            assert short_words == table_words == -(-n // 4) + len(self.split_rounds(
                n, seed, self.LAW))

    @pytest.mark.parametrize("n", [1, M - 1, M, C + 1])
    def test_edges_on_bucket_edges_draw_no_extra_word(self, n, monkeypatch):
        law = TestBucketLookup.odd_laws()[1]
        words = counted_words(monkeypatch)
        got = joined(protocol._sample_chunks(n, 5, law))
        assert sum(words) == -(-n // 4)
        expected = session_columns_reference(n, law.tables, law.settings_a, law.settings_b,
                                             law.detection, 5)
        for col, want in zip(columns(got), expected):
            assert np.array_equal(col, want)


class TestDetectionColumn:
    BIAS_A, BIAS_B = TestChunkedSession.BIAS_A, TestChunkedSession.BIAS_B
    EVE = EveConfig(enabled=True, arm="A")

    @pytest.mark.parametrize("n", [M - 1, M, C + 1])
    @pytest.mark.parametrize("detection", [1.0, np.nextafter(1.0, 0.0)])
    def test_matches_reference_oracle_at_the_edge(self, n, detection):
        """At detection 1 the undetected codes have probability 0 and are never
        drawn, on either path; just below 1 they have probability ~1e-16 times
        their pair's.  Either way the draws are the oracle's."""
        source = SourceConfig(coefficients=(0.642, 0.546, 0.539), visibility=0.9,
                              detection_efficiency=detection)
        tables = protocol.session_law(source, self.EVE).tables
        expected = session_columns_reference(n, tables, self.BIAS_A, self.BIAS_B, detection, n)
        a, b = PartyConfig(self.BIAS_A), PartyConfig(self.BIAS_B)
        got = whole_session(n, source, self.EVE, a, b, seed=n)
        for col, want in zip(columns(got), expected):
            assert np.array_equal(col, want)
        if detection == 1.0:
            assert not (got % 10 == 9).any()


class TestDrawPins:
    """The draws themselves, pinned: the oracle tests read the same tables as
    the sampler, so a change to the law would move both together.  300 rounds
    take the searchsorted path; 70000 the bucket lookup, across a chunk edge.
    Each chunk's digest input is its rounds' ids (their positions, which the
    transcript writes) as int64, then its codes."""

    BIAS_A, BIAS_B = TestChunkedSession.BIAS_A, TestChunkedSession.BIAS_B
    REFERENCE = (0.642, 0.546, 0.539)
    CASES = {
        "eve_a_random_basis": (
            SourceConfig(coefficients=REFERENCE, visibility=0.9, detection_efficiency=0.4),
            EveConfig(enabled=True, arm="A", basis=random_basis(np.random.default_rng(27))),
            "0x1.f7b3c8ad514a0p-2"),
        "background_crosstalk": (
            SourceConfig(coefficients=REFERENCE, visibility=0.95, background_fraction=0.05,
                         key_crosstalk=0.1, detection_efficiency=float(np.nextafter(1.0, 0.0))),
            NO_EVE, "0x1.4ba8d8c53933ap+1"),
    }

    DIGESTS = {
        ("eve_a_random_basis", 300):
            "1c31f592ce7ed5c7376b9013d123c589d5345ca776952f33a3f8159c4f341431",
        ("eve_a_random_basis", 70_000):
            "4868e1ae98222cdfed776b9bad8db6392a46f856bbc071d113c6f95ace6f563a",
        ("background_crosstalk", 300):
            "0d0776e7b7dbf8dac98774d66ec7186151e4e9a770f687786f41a3dea287842e",
        ("background_crosstalk", 70_000):
            "8bc3dfd1b0174ad3f474ee4745be49ef67e43226ed1817c7e8b4df8c6767aa5b",
    }

    @pytest.mark.parametrize("case, n", list(DIGESTS))
    def test_codes_ids_and_exact_s3(self, case, n):
        source, eve, s3_hex = self.CASES[case]
        digest = self.DIGESTS[case, n]
        h, lo = hashlib.sha256(), 0
        for code in iter_session(n, source, eve, PartyConfig(self.BIAS_A),
                                 PartyConfig(self.BIAS_B), seed=n):
            h.update(np.arange(lo, lo + len(code), dtype=np.int64).tobytes())
            h.update(code.tobytes())
            lo += len(code)
        assert lo == n and h.hexdigest() == digest
        assert exact_session_s3(source, eve).hex() == s3_hex


class TestTranscriptIO:
    def test_round_trip(self, tmp_path):
        a, b = PartyConfig(), PartyConfig()
        rounds = whole_session(500, SourceConfig(detection_efficiency=0.7),
                               NO_EVE, a, b, seed=21)
        path = tmp_path / "transcript.txt"
        list(transcribe(path, [rounds], header={"seed": 21, "rounds": 500}))
        header = {}
        loaded = read_transcript(path, header)
        assert header == {"seed": "21", "rounds": "500"}
        for c1, c2 in zip(columns(rounds), columns(loaded)):
            assert np.array_equal(c1, c2)

    def test_bad_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 0 1 0 1\n1 2 0\n")
        with pytest.raises(ValidationError, match="2"):
            list(iter_transcript(path))

    @pytest.mark.parametrize("chunk_rows", [None, 64])
    def test_writer_matches_reference_text(self, tmp_path, chunk_rows):
        a, b = PartyConfig(), PartyConfig()
        rounds = whole_session(1500, SourceConfig(detection_efficiency=0.7),
                               NO_EVE, a, b, seed=22)
        chunks = [rounds] if chunk_rows is None else [
            rounds[lo:lo + chunk_rows] for lo in range(0, len(rounds), chunk_rows)]
        header = {"seed": 22, "coefficients": (1.0, 1.0, 1.0)}
        path = tmp_path / "transcript.txt"
        list(transcribe(path, chunks, header=header))
        expected = [f"# {key} = {value}\n" for key, value in header.items()]
        for rid, sa, oa, sb, ob, det in zip(*(c.tolist() for c in columns(rounds))):
            oa, ob = (oa, ob) if det else ("-", "-")
            expected.append(f"{rid} {sa} {oa} {sb} {ob} {int(det)}\n")
        assert path.read_bytes() == "".join(expected).encode()

    READ_CASES = {
        "no final newline": ("0 1 0 1 0 1\n1 3 - 2 - 0",
                             [(0, 1, 0, 1, 0, True), (1, 3, -1, 2, -1, False)]),
        "header only": ("# seed = 1\n", []),
        "empty": ("", []),
    }

    @pytest.mark.parametrize("piece", [None, 1, 7])
    @pytest.mark.parametrize("case", sorted(READ_CASES))
    def test_reader_accepts(self, tmp_path, case, piece):
        text, rows = self.READ_CASES[case]
        path = piped(tmp_path / "t.txt", text.encode(), piece)
        loaded = read_transcript(path)
        assert loaded.dtype == np.uint8
        assert list(zip(*(c.tolist() for c in columns(loaded)))) == rows

    SPACES = "fields must be separated by single spaces, with none before or after them"
    REJECT_CASES = {
        "detected with dash outcome": ("0 1 - 1 0 1\n", 1, "outcome_a '-'"),
        "setting 9 outcome 7": ("0 9 7 1 0 1\n", 1, "setting_a '9'"),
        "setting_b 4": ("# h = 1\n0 1 0 4 0 1\n", 2, "setting_b '4'"),
        "outcome 7": ("0 1 0 1 0 1\n1 1 7 1 0 1\n", 2, "outcome_a '7'"),
        "outcome_b 3": ("0 1 0 1 3 1\n", 1, "outcome_b '3'"),
        "detected 2": ("0 1 0 1 0 2\n", 1, "detected '2'"),
        "undetected with outcome": ("0 1 - 1 2 0\n", 1, "outcome_b '2' must be '-'"),
        "multi-character field": ("0 01 0 1 0 1\n", 1, "setting_a '01'"),
        "negative id": ("-1 1 0 1 0 1\n", 1, "round_id '-1'"),
        "non-digit id": ("0 1 0 1 0 1\n1 1 0 1 0 1\n1x 1 0 1 0 1\n", 3, "round_id '1x'"),
        "19-digit id": ("1000000000000000000 1 0 1 0 1\n", 1, "round_id"),
        "19-digit id after the last": (
            "0 1 0 1 0 1\n1000000000000000000 1 0 1 0 1\n", 2,
            "round_id '1000000000000000000' is not a non-negative integer of at most 18"),
        "duplicate id": ("0 1 0 1 0 1\n1 1 0 1 0 1\n1 1 0 1 0 1\n", 3,
                         "round_id 1 is not 2: round ids are the rows' positions, from 0"),
        "decreasing id": ("0 1 0 1 0 1\n1 1 0 1 0 1\n0 1 0 1 0 1\n", 3, "round_id 0 is not 2"),
        "first id not 0": ("5 1 0 1 0 1\n6 1 0 1 0 1\n", 1, "round_id 5 is not 0"),
        "gapped ids": ("0 1 0 1 0 1\n2 1 0 1 0 1\n", 2, "round_id 2 is not 1"),
        "leading zero": ("0 1 0 1 0 1\n01 1 0 1 0 1\n", 2, "round_id 01 is not 1"),
        "seven fields": ("0 1 0 1 0 1\n1 1 0 1 0 1 1\n", 2, "expected 6 fields, got 7"),
        "first fault wins": ("0 1 0 1 0 1\n1 2 0\n0 9 9 9 9 9\n", 2, "expected 6"),
        # layouts other than the writer's
        "tabs": ("0\t1\t0\t1\t0\t1\n", 1, SPACES),
        "space runs": ("0   1 0  1 0      1\n", 1, SPACES),
        "crlf": ("# seed = 4\r\n0 1 0 1 0 1\r\n7 3 - 2 - 0\r\n", 1,
                 "CR LF line end: lines end in '\\n' alone (tr -d '\\r' converts a file)"),
        "crlf rows": ("0 1 0 1 0 1\r\n1 3 - 2 - 0\r\n", 1, "CR LF line end"),
        "indentation": ("   0 2 1 3 2 1\n\t 12 1 2 1 0 1\n", 1, SPACES),
        "trailing space": ("0 1 0 1 0 1\n1 1 2 1 0 1 \n", 2, SPACES),
        "comments and blanks": ("0 1 0 1 0 1\n\n  # note\n   \n#x=y\n5 3 - 2 - 0\n", 2,
                                "blank line"),
        "indented comment": ("0 1 0 1 0 1\n  # note\n1 3 - 2 - 0\n", 2, SPACES),
        # header lines: each exactly '# key = value', as the writer writes it
        "comment header line": ("# h\n0 1 0 1 0 1\n", 1, "not a '# key = value' header line"),
        "header without spaces": ("#x=y\n0 1 0 1 0 1\n", 1, "not a '# key = value'"),
        "header space runs": ("# x =  y\n", 1, "not a '# key = value'"),
        # a header line must be UTF-8, and its fault is ordered by line
        "non-UTF-8 header": (b"# seed = 1\n# note = \xff\xfe\n0 1 0 1 0 1\n", 2,
                             "not UTF-8 text (byte 0xff at column 10)"),
        "non-UTF-8 comment header": (b"# \xff\n", 1, "not UTF-8 text (byte 0xff at column 3)"),
        "non-UTF-8 indented header": (b"0 1 0 1 0 1\n \t# a=\xc3(\n1 9 0 1 0 1\n", 2, SPACES),
        "non-UTF-8 header after a fault": (b"0 1 0 1 0 1\n1 2 0\n# note = \xff\n", 2,
                                           "expected 6 fields"),
        # a header key read twice
        "repeated header key": ("# seed = 1\n# rounds = 1\n# seed = 2\n0 1 0 1 0 1\n", 3,
                                "header key 'seed' repeated (first at line 1)"),
        "repeated header key in one block": ("# a = 1\n# b = 2\n# b = 2\n0 1 0 1 0 1\n", 3,
                                             "header key 'b' repeated (first at line 2)"),
        "fault before a repeated header key": ("# a = 1\n0 1 0 1\n# a = 1\n", 2,
                                               "expected 6 fields, got 4"),
    }

    @pytest.mark.parametrize("piece", [None, 1, 7])
    @pytest.mark.parametrize("case", sorted(REJECT_CASES))
    def test_reader_rejects(self, tmp_path, case, piece):
        text, line, message = self.REJECT_CASES[case]
        path = piped(tmp_path / "bad.txt", text if isinstance(text, bytes) else text.encode(),
                     piece)
        with pytest.raises(ValidationError) as info:
            list(iter_transcript(path))
        assert str(info.value).startswith(f"{path}:{line}: ")
        assert message in str(info.value)

    def test_reader_header_anywhere(self, tmp_path):
        # header lines lead the file: a '#' line after a round is refused
        path = tmp_path / "t.txt"
        path.write_bytes(b"# seed = 3\n0 1 0 1 0 1\n  #rounds=2  \n1 1 0 1 0 1\n# \xff\n")
        with pytest.raises(ValidationError) as info:
            list(iter_transcript(path))
        assert str(info.value) == f"{path}:3: {self.SPACES}"
        path.write_bytes(b"# seed = 3\n0 1 0 1 0 1\n# rounds = 2\n1 1 0 1 0 1\n")
        with pytest.raises(ValidationError) as info:
            list(iter_transcript(path))
        assert str(info.value) == (f"{path}:3: '#' line after the first round: "
                                   "header lines come first")

    def test_reader_refuses_a_19_digit_id(self):
        # the round after id 10**18 - 1 has a 19-digit id, which no file reaches
        # from 0, so the rows are read from there directly
        data = b"999999999999999999 1 0 1 0 1\n1000000000000000000 1 0 1 0 1\n"
        assert parse_rows(data[:29], 10**18 - 1).tolist() == [0]
        with pytest.raises(ValidationError) as info:
            parse_rows(data, 10**18 - 1)
        assert str(info.value) == ("t:2: round_id '1000000000000000000' is not a "
                                   "non-negative integer of at most 18 digits")

    @pytest.mark.parametrize("header", [{"note": "a\nb"}, {"a=b": "1"}, {" k ": "v "},
                                        {"": "1"}, {"k": " v"}, {"\ud800": 1}])
    def test_writer_rejects_header_it_cannot_read_back(self, tmp_path, header):
        path = tmp_path / "t.txt"
        code = whole_session(10, IDEAL, NO_EVE, PartyConfig(), PartyConfig(), seed=1)
        with pytest.raises(ValidationError, match="would not read back as written"):
            list(transcribe(path, [code], header=header))
        assert not path.exists()

    @pytest.mark.parametrize("piece", [None, 4096])
    def test_reader_line_numbers_across_blocks(self, tmp_path, piece):
        n = 30_000          # about 490 kB: more than one span's read
        lines = ["# seed = 1\n"] + [f"{i} {1 + i % 3} {i % 3} 2 1 1\n" for i in range(n)]
        path = piped(tmp_path / "t.txt", "".join(lines).encode(), piece)
        chunks = list(iter_transcript(path))
        assert len(chunks) == len(list(transcript._spans(0, n)))
        loaded = joined(chunks)
        assert len(loaded) == n
        assert np.array_equal(columns(loaded)[1], 1 + np.arange(n) % 3)
        assert len("".join(lines)) > transcript._SPAN_BYTES
        # a fault at line 25 000, and a blank line after line 15 000
        for line, edit, bad_line, message in (
                (25_000, (" 2 1 1\n", " 2 1 -\n"), 25_000, "detected '-'"),
                (15_000, ("\n", "\n\n"), 15_001, "blank line")):
            edited = lines.copy()
            edited[line - 1] = edited[line - 1].replace(*edit)
            piped(path, "".join(edited).encode(), piece)
            with pytest.raises(ValidationError, match=f":{bad_line}: {message}"):
                list(iter_transcript(path))

    @pytest.mark.parametrize("last_id", [9, 99, 9_999, 19_999])
    def test_reader_seven_fields_end_a_span(self, tmp_path, last_id):
        # the span's read ends inside its last line, which is read to its end
        code = whole_session(last_id + 5, SourceConfig(detection_efficiency=0.7),
                             NO_EVE, PartyConfig(), PartyConfig(), seed=26)
        path = tmp_path / "t.txt"
        list(transcribe(path, [code], header={"seed": 26}))
        lines = path.read_bytes().splitlines(keepends=True)
        lines[last_id + 1] = lines[last_id + 1][:-1] + b" 1\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValidationError) as info:
            list(iter_transcript(path))
        assert str(info.value) == f"{path}:{last_id + 2}: expected 6 fields, got 7"

    @pytest.mark.parametrize("n", [0, 10, 100, 1_000, 10_000])
    def test_reader_last_line_without_newline_at_a_span_end(self, tmp_path, n):
        # the rows end exactly where a span does, or there are none after
        # the header, and the file's last line lacks its newline
        code = whole_session(max(n, 1), SourceConfig(detection_efficiency=0.7),
                             NO_EVE, PartyConfig(), PartyConfig(), seed=27)[:n]
        path = tmp_path / "t.txt"
        list(transcribe(path, [code], header={"seed": 27}))
        path.write_bytes(path.read_bytes()[:-1])
        header = {}
        chunks = list(iter_transcript(path, header))
        assert header == {"seed": "27"}
        assert len(chunks) == len(list(transcript._spans(0, n)))
        assert np.array_equal(joined(chunks), code)

    @pytest.mark.parametrize("codes, value, message", [
        ("code", 90, "round index 3: round code 90 is not from 0 to 89"),
        ("code", 255, "round index 3: round code 255 is not from 0 to 89"),
        ("int64", -1, "round index 3: round code -1 is not from 0 to 89"),
        ("float64", 80.9, "round codes must be integers, got dtype float64"),
    ])
    def test_writer_rejects_unreadable_rounds(self, tmp_path, codes, value, message):
        # the sampler's uint8 codes ("code"), or the same codes in another dtype
        code = whole_session(10, IDEAL, NO_EVE, PartyConfig(), PartyConfig(), seed=1)
        code = code if codes == "code" else code.astype(codes)
        code[3] = value
        with pytest.raises(ValidationError, match=message):
            list(transcribe(tmp_path / "t.txt", [code]))

    # every power of ten (so every width from 1 to 18 digits and every 4-digit
    # group boundary), a carry through three groups at one width, and the last id
    WIDE_IDS = (0, *(10**k for k in range(1, 18)), 5 * 10**12, 10**18 - 1)

    @pytest.mark.parametrize("chunk_rows", [None, 7])
    def test_writer_id_widths(self, tmp_path, chunk_rows):
        # the ids within 8 of each of WIDE_IDS, with all 90 line tails:
        # 9 setting pairs x (9 outcome pairs or undetected), written by the
        # writer's row renderer one consecutive run (or ``chunk_rows`` of it)
        # at a time, and each run read back from its first id
        ids = np.array(sorted({i + k for i in self.WIDE_IDS for k in range(-8, 9)
                               if 0 <= i + k < 10**18}), dtype=np.int64)
        n = len(ids)
        assert n >= 90 and {len(str(i)) for i in ids} == set(range(1, 19))
        code = np.arange(n) % 90
        path, step = tmp_path / "t.txt", chunk_rows or n
        runs = np.split(np.arange(n), np.flatnonzero(np.diff(ids) > 1) + 1)
        out, ends = bytearray(transcript._SPAN_BYTES), [0]
        with open(path, "wb") as fh:
            for run in runs:
                for rows in np.split(run, range(step, len(run), step)):
                    transcript._write_rows(fh, int(ids[rows[0]]), code[rows], out)
                ends.append(fh.tell())
        expected = []
        for rid, sa, oa, sb, ob, seen in zip(*(c.tolist() for c in columns(code, ids))):
            oa, ob = (oa, ob) if seen else ("-", "-")
            expected.append(f"{rid} {sa} {oa} {sb} {ob} {int(seen)}\n")
        data = path.read_bytes()
        assert data == "".join(expected).encode()
        for run, lo, hi in zip(runs, ends, ends[1:]):
            loaded = parse_rows(data[lo:hi], int(ids[run[0]]))
            assert loaded.dtype == np.uint8 and np.array_equal(loaded, code[run])

    @pytest.mark.parametrize("chunk_rows", [64, 4096, None])
    @pytest.mark.parametrize("first_id", [0, 99_800, 99_999_800, 10**17 - 200])
    def test_writer_output_takes_the_fixed_path(self, tmp_path, first_id, chunk_rows):
        # ids 0 to 10 099 through ``transcribe`` and ``iter_transcript``, or 400
        # ids from ``first_id`` read by ``_read_rows``: they cross 9 999 -> 10 000,
        # or from 5 to 6, 8 to 9 or 17 to 18 digits; written ``chunk_rows`` rows
        # at a time, or at once, and read back one chunk per span
        n = 10_100 if first_id == 0 else 400
        code = whole_session(n, SourceConfig(detection_efficiency=0.7),
                             NO_EVE, PartyConfig(), PartyConfig(), seed=25)
        step = chunk_rows or n
        chunks = [code[lo:lo + step] for lo in range(0, n, step)]
        path = tmp_path / "t.txt"
        if first_id == 0:
            list(transcribe(path, chunks, header={"seed": 25, "rounds": n}))
            read = list(iter_transcript(path))
        else:
            with open(path, "wb") as fh:
                for lo, chunk in zip(range(0, n, step), chunks):
                    transcript._write_rows(fh, first_id + lo, chunk.astype(np.intp),
                                           bytearray(transcript._SPAN_BYTES))
            with open(path, "rb") as fh:
                read = list(transcript._read_rows(fh, first_id, "t", 0))
        assert len(read) == len(list(transcript._spans(first_id, n)))
        loaded = joined(read)
        assert loaded.dtype == np.uint8 and np.array_equal(loaded, code)

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
            lambda f: f"# note {f[0]} = x\n" + " ".join(f) + "\n",
            lambda f: " ".join(f) + "\n\n  \n",
        )
        lines = text.splitlines(keepends=True)
        for j, layout in edits.items():
            if j < len(lines) and not lines[j].startswith("#"):
                lines[j] = layouts[layout](lines[j].split())
        return "".join(lines)

    # the fault of each layout of ``_edited`` and the line it is found on,
    # after the edited line's own
    LAYOUT_FAULTS = ((SPACES, 0), (SPACES, 0), ("CR LF line end", 0), (SPACES, 0),
                     ("'#' line after the first round", 0), ("blank line", 1))

    @given(edits=st.dictionaries(st.integers(0, 400), st.integers(0, 5), max_size=12))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_reader_layouts_agree(self, edits):
        # the writer's layout is the only one: any other is refused at its
        # first edited line
        rounds = whole_session(400, SourceConfig(detection_efficiency=0.7),
                               NO_EVE, PartyConfig(), PartyConfig(), seed=23)
        with tempfile.TemporaryDirectory() as tmp:
            plain, edited = os.path.join(tmp, "plain.txt"), os.path.join(tmp, "edited.txt")
            list(transcribe(plain, [rounds], header={"seed": 23}))
            with open(plain) as fh, open(edited, "w", newline="") as out:
                out.write(self._edited(fh.read(), edits))
            header = {}
            assert np.array_equal(read_transcript(plain, header), rounds)
            assert header == {"seed": "23"}
            # line 0, the header, is never edited
            if not edits.keys() - {0}:
                assert np.array_equal(read_transcript(edited), rounds)
                return
            with pytest.raises(ValidationError) as info:
                read_transcript(edited)
        j = min(edits.keys() - {0})
        message, after = self.LAYOUT_FAULTS[edits[j]]
        assert str(info.value).startswith(f"{edited}:{j + 1 + after}: {message}")

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

    @given(j=st.integers(1, 300), kind=st.sampled_from(DAMAGE), pick=st.integers(0, 11),
           first_id=st.sampled_from([0, 9_800, 99_999_800, 10**18 - 400]))
    # on the last line: an 'x' for the odd first digit of a 3-, 5- and 9-digit
    # id, and a '/' (the byte before '0') for outcome_a
    @example(j=300, kind="id digit", pick=0, first_id=0)
    @example(j=300, kind="id digit", pick=0, first_id=9_800)
    @example(j=300, kind="id digit", pick=0, first_id=99_999_800)
    @example(j=300, kind="field", pick=1, first_id=10**18 - 400)
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    def test_reader_damaged_writer_layout_falls_back(self, j, kind, pick, first_id):
        # a damaged byte is refused at its line, unless it leaves the rounds as
        # they were (a 9 put for a 9, the last line's newline dropped); ids of
        # 1-3, 4-5, 8-9 or 18 digits after a header line, so the damage meets
        # odd and even widths, width changes and the first, middle and last
        # line of a span; ids from 0 are read by ``iter_transcript``, the
        # others by ``_read_rows``
        code = whole_session(300, SourceConfig(detection_efficiency=0.7),
                             NO_EVE, PartyConfig(), PartyConfig(), seed=24)
        with tempfile.TemporaryDirectory() as tmp:
            path, header = os.path.join(tmp, "t.txt"), b"# seed = 24\n"
            with open(path, "wb") as fh:
                fh.write(header)
                transcript._write_rows(fh, first_id, code.astype(np.intp),
                                       bytearray(transcript._SPAN_BYTES))
            with open(path) as fh:
                text = self._damaged(fh.read(), j, kind, pick)
            with open(path, "w", newline="") as out:
                out.write(text)
            try:
                loaded = (read_transcript(path) if first_id == 0 else
                          parse_rows(text.encode()[len(header):], first_id, 1))
            except ValidationError as exc:
                # line j + 1 holds round j - 1; a doubled newline makes line j + 2 blank
                line = j + 2 if kind == "newline" and pick % 2 else j + 1
                assert str(exc).startswith(f"{path if first_id == 0 else 't'}:{line}: ")
                return
        assert kind in ("id digit", "newline") and np.array_equal(loaded, code)

    @pytest.mark.parametrize("bad, message", [
        ("5 9 7 1 0 1", "setting_a '9' is not 1, 2 or 3"),
        ("25000 1 - 1 0 1", "outcome_a '-' must be 0, 1 or 2 when detected is 1"),
        ("24998 1 0 1 0 1",
         "round_id 24998 is not 24999: round ids are the rows' positions, from 0"),
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
        assert path.stat().st_size > transcript._SPAN_BYTES
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
        "row then id": ("700 1 0 1 0 1\n5 1 0 1 0 1", 704,
                        "round_id 5 is not 701: round ids are the rows' positions, from 0"),
        "row then fields": ("700 1 0 1 0 1\n701 1 0 1 0 1 1", 704, "expected 6 fields, got 7"),
        # a comment line between rows is itself the fault
        "comment then id": ("# mid = 2\n5 1 0 1 0 1", 703,
                            "'#' line after the first round: header lines come first"),
        "indented comment": ("  # x\n700 1 0 1 0 1 1", 703, SPACES),
    }

    @pytest.mark.parametrize("piece", [None, 1, 100])
    @pytest.mark.parametrize("case", sorted(FIRST_BLOCK_FAULTS))
    def test_reader_first_block_fault_after_header(self, tmp_path, case, piece):
        bad, line, message = self.FIRST_BLOCK_FAULTS[case]
        lines = self.HEADED.splitlines(keepends=True)
        row = 2 + (0 if case == "first row" else 700)
        lines[row] = bad + "\n"
        path = piped(tmp_path / "t.txt", "".join(lines).encode(), piece)
        with pytest.raises(ValidationError) as info:
            list(iter_transcript(path))
        assert str(info.value) == f"{path}:{line}: {message}"
