import numpy as np
import pytest

from qutrit_qkd import bell, linalg
from qutrit_qkd.bell import (
    CANONICAL_OFFSETS,
    CLASSICAL_BOUND,
    NONMAX_QUANTUM_MAX,
    QUANTUM_MAX,
    S3_COEFFICIENTS,
    VISIBILITY_AT_CLASSICAL_BOUND,
    SettingsPair,
    canonical_settings,
    coincidence_mod3,
    optimize_gamma_family,
    optimize_s3,
    outcome_distribution,
    random_basis,
    s3,
    s3_vs_visibility,
    unitary_from_params,
)
from qutrit_qkd.linalg import (
    MixedState,
    ValidationError,
    born_tables,
    computational_basis,
    diagonal_state,
    make_state,
    maximally_entangled_state,
    phase_basis,
    phase_rows,
)

from oracles import s3_bruteforce, s3_closed_form, s3_gamma_closed_form


def random_product_mixture(rng, max_components=4):
    n = rng.integers(1, max_components + 1)
    weights = rng.dirichlet(np.ones(n + 1))
    components = []
    for i in range(n):
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        components.append((weights[i], np.outer(u, v)))
    return MixedState(components=tuple(components), white_noise_weight=weights[-1])


def random_settings(rng):
    return SettingsPair(a1=random_basis(rng), a2=random_basis(rng),
                        b1=random_basis(rng), b2=random_basis(rng))


class TestOutcomeDistribution:
    def test_white(self):
        table = outcome_distribution(MixedState.white(),
                                     computational_basis(), computational_basis())
        assert np.allclose(table, 1 / 9)

    def test_source_form_support(self):
        table = outcome_distribution(make_state((1, 1, 1)),
                                     computational_basis(), computational_basis())
        expected = np.zeros((3, 3))
        expected[0, 0] = expected[1, 2] = expected[2, 1] = 1 / 3
        assert np.allclose(table, expected, atol=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            table = outcome_distribution(random_product_mixture(rng),
                                         random_basis(rng), random_basis(rng))
            assert abs(table.sum() - 1.0) < 1e-10
            assert np.all(table >= -1e-15) and np.all(table <= 1 + 1e-15)


class TestCoincidenceMod3:
    def test_identity_table(self):
        table = np.eye(3) / 3
        assert coincidence_mod3(table, 0) == pytest.approx(1.0)

    def test_uniform_table(self):
        table = np.full((3, 3), 1 / 9)
        for k in range(3):
            assert coincidence_mod3(table, k) == pytest.approx(1 / 3)

    def test_source_form_computational(self):
        table = outcome_distribution(make_state((1, 1, 1)),
                                     computational_basis(), computational_basis())
        # only the (0, 0) cell lies on the k=0 diagonal
        assert coincidence_mod3(table, 0) == pytest.approx(1 / 3)

    def test_normalization_over_k(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            table = outcome_distribution(random_product_mixture(rng),
                                         random_basis(rng), random_basis(rng))
            assert abs(sum(coincidence_mod3(table, k) for k in range(3)) - 1.0) < 1e-10


class TestS3Exact:
    def test_quantum_maximum_at_canonical_settings(self):
        value = s3(maximally_entangled_state(), canonical_settings())
        assert value.s3 == pytest.approx(QUANTUM_MAX, abs=1e-12)
        assert value.s3 == pytest.approx(2.87293, abs=1e-4)
        assert value.violates_local_realism

    def test_convention_pin(self):
        # The term mapping is fixed by requiring the closed-form maximum;
        # swapping the two difference classes would give a smaller value.
        table = outcome_distribution(maximally_entangled_state(),
                                     phase_basis("A", 0.0), phase_basis("B", 0.25))
        k_minus_one = coincidence_mod3(table, 1)   # A = B - 1
        k_plus_one = coincidence_mod3(table, 2)    # A = B + 1
        assert k_minus_one != pytest.approx(k_plus_one)
        wrong = 0.0
        cs = canonical_settings()
        for (a, b_), k0, k1 in [((1, 1), 0, 2), ((2, 1), 2, 0), ((2, 2), 0, 2), ((1, 2), 0, 1)]:
            t = outcome_distribution(maximally_entangled_state(),
                                     cs.basis("a", a), cs.basis("b", b_))
            wrong += coincidence_mod3(t, k0) - coincidence_mod3(t, k1)
        assert wrong < QUANTUM_MAX - 0.5

    def test_white_state_zero(self):
        rng = np.random.default_rng(3)
        assert s3(MixedState.white(), canonical_settings()).s3 == pytest.approx(0.0, abs=1e-12)
        assert s3(MixedState.white(), random_settings(rng)).s3 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("visibility", [0.25, 0.5, 0.75])
    def test_visibility_scaling(self, visibility):
        mixed = MixedState.isotropic(maximally_entangled_state(), visibility)
        assert s3(mixed, canonical_settings()).s3 == pytest.approx(
            visibility * QUANTUM_MAX, abs=1e-9)

    def test_closed_form_oracle_random_offsets(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            offsets = rng.uniform(-2, 2, size=4)
            coeffs = rng.uniform(0.05, 1.0, size=3)
            coeffs /= np.linalg.norm(coeffs)
            settings = SettingsPair(
                a1=phase_basis("A", offsets[0]), a2=phase_basis("A", offsets[1]),
                b1=phase_basis("B", offsets[2]), b2=phase_basis("B", offsets[3]))
            got = s3(diagonal_state(coeffs), settings).s3
            assert got == pytest.approx(s3_closed_form(coeffs, offsets), abs=1e-10)

    def test_profile_matches_coefficient_path(self):
        # the exact evaluation (correlation profile) and the estimator's
        # signed coefficient matrices must encode the same expression
        rng = np.random.default_rng(8)
        for _ in range(20):
            mixed = random_product_mixture(rng)
            settings = random_settings(rng)
            via_coeffs = 0.0
            for (a, b_), coeff in bell.s3_coefficients().items():
                table = outcome_distribution(mixed, settings.basis("a", a),
                                             settings.basis("b", b_))
                via_coeffs += float((coeff * table).sum())
            assert s3(mixed, settings).s3 == pytest.approx(via_coeffs, abs=1e-12)

    def test_correlation_profile_normalized(self):
        profile = bell.correlation_profile(maximally_entangled_state(),
                                           canonical_settings())
        assert set(profile) == {(1, 1), (1, 2), (2, 1), (2, 2)}
        for p in profile.values():
            assert p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_linearity_in_mixture(self):
        rng = np.random.default_rng(5)
        settings = random_settings(rng)
        psi1 = maximally_entangled_state()
        psi2 = make_state((1, 0, 0))
        mixed = MixedState(components=((0.3, psi1), (0.45, psi2)),
                           white_noise_weight=0.25)
        expected = 0.3 * s3(psi1, settings).s3 + 0.45 * s3(psi2, settings).s3
        assert s3(mixed, settings).s3 == pytest.approx(expected, abs=1e-12)

    def test_no_signalling(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            mixed = random_product_mixture(rng)
            basis_a = random_basis(rng)
            t1 = outcome_distribution(mixed, basis_a, random_basis(rng))
            t2 = outcome_distribution(mixed, basis_a, random_basis(rng))
            assert np.allclose(t1.sum(axis=1), t2.sum(axis=1), atol=1e-10)

    def test_separable_bound_sample(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            mixed = random_product_mixture(rng)
            assert s3(mixed, random_settings(rng)).s3 <= CLASSICAL_BOUND + 1e-9


def kernel_s3(rows_a, rows_b, psis, weights, white=0.0):
    """S3 as the optimizers evaluate it: raw rows, the kernel, the tensor."""
    return float(np.sum(S3_COEFFICIENTS * born_tables(rows_a, rows_b, psis, weights, white)))


class TestKernelS3:
    def test_matches_eight_term_bruteforce_on_random_settings(self):
        rng = np.random.default_rng(31)
        for i in range(40):
            if i % 2:
                mixed = random_product_mixture(rng)
            else:
                psi = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                mixed = MixedState.isotropic(psi / np.linalg.norm(psi), rng.uniform())
            settings = random_settings(rng)
            expected = s3_bruteforce(list(mixed.components), mixed.white_noise_weight,
                                     (settings.a1, settings.a2), (settings.b1, settings.b2))
            assert abs(s3(mixed, settings).s3 - expected) < 1e-13

    def test_phase_rows_match_closed_form(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            offsets = rng.uniform(-3, 3, size=4)
            coeffs = rng.uniform(0.05, 1.0, size=3)
            coeffs /= np.linalg.norm(coeffs)
            got = kernel_s3(phase_rows("A", offsets[:2]), phase_rows("B", offsets[2:]),
                            np.diag(coeffs)[None], np.ones(1))
            assert got == pytest.approx(s3_closed_form(coeffs, offsets), abs=1e-12)

    def test_gamma_family_matches_closed_form(self):
        rows_a = phase_rows("A", CANONICAL_OFFSETS[:2])
        rows_b = phase_rows("B", CANONICAL_OFFSETS[2:])
        for gamma in np.linspace(0.0, 2.0, 41):
            c = np.array((1.0, gamma, 1.0))
            got = kernel_s3(rows_a, rows_b, np.diag(c / np.linalg.norm(c))[None], np.ones(1))
            assert got == pytest.approx(s3_gamma_closed_form(gamma), abs=1e-12)

    def test_white_only_mixture(self):
        rng = np.random.default_rng(33)
        settings = random_settings(rng)
        white = MixedState.isotropic(maximally_entangled_state(), 0.0)
        assert kernel_s3(np.concatenate((settings.a1, settings.a2)),
                         np.concatenate((settings.b1, settings.b2)),
                         white.psis, white.weights, white.white_noise_weight) \
            == pytest.approx(0.0, abs=1e-12)
        result = optimize_s3(white, tolerance=1e-3, restarts=1)
        assert result.s3 == pytest.approx(0.0, abs=1e-12)


def central_difference(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    return np.array([(f(x + h * e) - f(x - h * e)) / (2 * h) for e in np.eye(len(x))])


class TestAnalyticGradients:
    """The solvers' exact gradients against central differences of the oracle."""

    def test_phase_family_diagonal_state(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            offsets = rng.uniform(-3, 3, size=4)
            coeffs = rng.uniform(0.05, 1.0, size=3)
            coeffs /= np.linalg.norm(coeffs)
            state = MixedState.pure(diagonal_state(coeffs))
            value, grad = bell._phase_s3_gradient(offsets, state.psis, state.weights)
            assert value == pytest.approx(s3_closed_form(coeffs, offsets), abs=1e-12)
            expected = central_difference(lambda x: s3_closed_form(coeffs, x), offsets)
            assert np.max(np.abs(grad - expected)) <= 1e-6

    def test_phase_family_isotropic_mixture(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            offsets = rng.uniform(-3, 3, size=4)
            coeffs = rng.uniform(0.05, 1.0, size=3)
            coeffs /= np.linalg.norm(coeffs)
            visibility = rng.uniform(0.1, 0.95)
            mixed = MixedState.isotropic(diagonal_state(coeffs), visibility)
            value, grad = bell._phase_s3_gradient(offsets, mixed.psis, mixed.weights)
            # uniform noise contributes nothing to S3
            assert value == pytest.approx(visibility * s3_closed_form(coeffs, offsets),
                                          abs=1e-12)
            expected = central_difference(
                lambda x: visibility * s3_closed_form(coeffs, x), offsets)
            assert np.max(np.abs(grad - expected)) <= 1e-6

    def test_gamma_family_with_free_offsets(self):
        def closed_form(x):
            coeffs = np.array((1.0, x[0], 1.0))
            return s3_closed_form(coeffs / np.linalg.norm(coeffs), x[1:])

        rng = np.random.default_rng(43)
        for _ in range(20):
            x = np.concatenate((rng.uniform(0.1, 2.0, 1), rng.uniform(-3, 3, 4)))
            value, grad = bell._gamma_s3_gradient(x)
            assert value == pytest.approx(closed_form(x), abs=1e-12)
            assert np.max(np.abs(grad - central_difference(closed_form, x))) <= 1e-6


class TestVisibilityLaw:
    def test_endpoints(self):
        assert s3_vs_visibility(1.0) == pytest.approx(2.87293, abs=1e-4)
        assert s3_vs_visibility(0.0) == 0.0

    def test_threshold(self):
        assert s3_vs_visibility(0.6962) == pytest.approx(2.0, abs=1e-3)
        assert VISIBILITY_AT_CLASSICAL_BOUND == pytest.approx(0.69615, abs=1e-5)
        mixed = MixedState.isotropic(maximally_entangled_state(),
                                     VISIBILITY_AT_CLASSICAL_BOUND)
        assert s3(mixed, canonical_settings()).s3 == pytest.approx(2.0, abs=1e-12)

    def test_range_check(self):
        with pytest.raises(ValidationError):
            s3_vs_visibility(1.5)
        with pytest.raises(ValidationError):
            s3_vs_visibility(-0.1)


class TestOptimizer:
    def test_phase_family_reaches_maximum(self):
        result = optimize_s3(maximally_entangled_state(), family="phase",
                             tolerance=1e-7, seed=1, restarts=8)
        assert result.s3 == pytest.approx(QUANTUM_MAX, abs=1e-4)
        assert result.converged

    def test_symmetric_under_setting_exchange(self):
        # exchanging both sides' setting labels is a symmetry of the family
        # once each relabeled basis absorbs a cyclic outcome shift (integer
        # offset change); this point reproduces the maximum exactly
        exchanged = SettingsPair(
            a1=phase_basis("A", 0.5), a2=phase_basis("A", 1.0),
            b1=phase_basis("B", -0.25), b2=phase_basis("B", -0.75))
        value = s3(maximally_entangled_state(), exchanged).s3
        assert value == pytest.approx(QUANTUM_MAX, abs=1e-12)
        # the multi-start optimizer reaches the same maximum from any seed
        for seed in (4, 5):
            result = optimize_s3(maximally_entangled_state(), family="phase",
                                 tolerance=1e-7, seed=seed, restarts=8)
            assert result.s3 == pytest.approx(QUANTUM_MAX, abs=1e-4)

    def test_unitary_family_measured_coefficients(self):
        state = diagonal_state((0.642, 0.546, 0.539))
        result = optimize_s3(state, family="unitary", tolerance=1e-5,
                             seed=2, restarts=4)
        assert result.s3 >= 2.80
        grid = max(s3_closed_form(
            np.array((0.642, 0.546, 0.539)) / np.linalg.norm((0.642, 0.546, 0.539)),
            (off, 0.5 + off, 0.25, -0.25)) for off in np.linspace(-0.5, 0.5, 41))
        assert result.s3 >= grid - 1e-3

    def test_gamma_family_joint_optimum(self):
        result = optimize_gamma_family(tolerance=1e-8, seed=3, restarts=8)
        assert result.s3 == pytest.approx(NONMAX_QUANTUM_MAX, abs=1e-3)
        assert result.gamma == pytest.approx(0.7923, abs=0.01)
        # cross-check against a dense 1-D scan of the closed form
        grid = np.linspace(0.5, 1.1, 2001)
        scan_max = max(s3_gamma_closed_form(g) for g in grid)
        assert result.s3 == pytest.approx(scan_max, abs=1e-4)

    def test_deterministic_for_seed(self):
        r1 = optimize_s3(maximally_entangled_state(), tolerance=1e-6, seed=9, restarts=4)
        r2 = optimize_s3(maximally_entangled_state(), tolerance=1e-6, seed=9, restarts=4)
        assert r1.s3 == r2.s3
        assert np.array_equal(r1.params, r2.params)

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            optimize_s3(maximally_entangled_state(), tolerance=0.0)
        with pytest.raises(ValidationError):
            optimize_s3(maximally_entangled_state(), family="gradient")

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -3}, {"restarts": 2.0},
                                        {"tolerance": float("nan")},
                                        {"tolerance": float("inf")}])
    def test_bad_solver_inputs(self, kwargs):
        with pytest.raises(ValidationError):
            optimize_s3(maximally_entangled_state(), **kwargs)
        with pytest.raises(ValidationError):
            optimize_gamma_family(**kwargs)

    def test_raw_objective_matches_validated_value(self):
        # the optimizer's unvalidated evaluation and the validated re-evaluation
        # at the returned settings agree
        state = diagonal_state((0.642, 0.546, 0.539))
        psis = np.asarray(state)[None]
        for family in ("phase", "unitary"):
            result = optimize_s3(state, family=family, tolerance=1e-3, seed=6, restarts=2)
            if family == "phase":
                rows_a = phase_rows("A", result.params[:2])
                rows_b = phase_rows("B", result.params[2:])
            else:
                us = [unitary_from_params(p) for p in result.params.reshape(4, 8)]
                base = canonical_settings()
                rows_a = np.concatenate((us[0] @ base.a1, us[1] @ base.a2))
                rows_b = np.concatenate((us[2] @ base.b1, us[3] @ base.b2))
            assert kernel_s3(rows_a, rows_b, psis, np.ones(1)) == pytest.approx(
                result.s3, abs=1e-13)

    def test_validations_do_not_grow_with_evaluations(self, monkeypatch):
        validations, evaluations = [], []
        validate, kernel = linalg.require_orthonormal, bell.born_tables

        def counting_validate(*args, **kwargs):
            validations.append(1)
            return validate(*args, **kwargs)

        def counting_kernel(*args, **kwargs):
            evaluations.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(linalg, "require_orthonormal", counting_validate)
        monkeypatch.setattr(bell, "require_orthonormal", counting_validate)
        monkeypatch.setattr(bell, "born_tables", counting_kernel)
        counts = []
        for tolerance in (1e-1, 1e-6):
            validations.clear()
            evaluations.clear()
            optimize_s3(maximally_entangled_state(), family="unitary",
                        tolerance=tolerance, seed=1, restarts=1)
            counts.append((len(validations), len(evaluations)))
        (v_loose, n_loose), (v_tight, n_tight) = counts
        assert n_tight > n_loose > 10
        assert v_tight == v_loose <= 8

    def test_gradient_solves_stay_within_evaluation_budget(self, monkeypatch):
        # a fall-back to derivative-free search takes thousands of kernel calls
        calls = []
        kernel = linalg.born_amplitudes

        def counting_kernel(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(linalg, "born_amplitudes", counting_kernel)
        monkeypatch.setattr(bell, "born_amplitudes", counting_kernel)
        result = optimize_s3(diagonal_state((0.642, 0.546, 0.539)), seed=11)
        assert result.converged
        assert 0 < len(calls) <= 1000
        calls.clear()
        gamma = optimize_gamma_family(tolerance=1e-8, seed=0, restarts=1)
        assert gamma.converged
        assert 0 < len(calls) <= 60

    def test_unitary_parameterization(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            u = unitary_from_params(rng.normal(size=8))
            assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
