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
    optimize_gamma_family,
    optimize_s3,
    s3,
)
from qutrit_qkd.linalg import (
    MixedState,
    ValidationError,
    born_tables,
    computational_basis,
    diagonal_state,
    phase_rows,
)
from qutrit_qkd.protocol import SWAP_12

from oracles import (
    coincidence_mod3,
    random_basis,
    s3_bruteforce,
    s3_closed_form,
    s3_gamma_closed_form,
)


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


def pair_table(state, basis_a, basis_b):
    """3x3 joint outcome table of one basis per side, rows A's outcome,
    through the validated ``SettingsPair.tables``."""
    return SettingsPair(a1=basis_a, a2=basis_a, b1=basis_b, b2=basis_b).tables(state)[0, :, 0, :]


def random_settings(rng):
    return SettingsPair(a1=random_basis(rng), a2=random_basis(rng),
                        b1=random_basis(rng), b2=random_basis(rng))


class TestOutcomeDistribution:
    """One setting pair's table, read through ``SettingsPair.tables``."""

    def test_white(self):
        table = pair_table(MixedState(white_noise_weight=1.0),
                           computational_basis(), computational_basis())
        assert np.allclose(table, 1 / 9)

    def test_source_form_support(self):
        table = pair_table(diagonal_state((1, 1, 1))[:, SWAP_12],
                           computational_basis(), computational_basis())
        expected = np.zeros((3, 3))
        expected[0, 0] = expected[1, 2] = expected[2, 1] = 1 / 3
        assert np.allclose(table, expected, atol=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            table = pair_table(random_product_mixture(rng),
                               random_basis(rng), random_basis(rng))
            assert abs(table.sum() - 1.0) < 1e-10
            assert np.all(table >= -1e-15) and np.all(table <= 1 + 1e-15)


class TestCoincidenceMod3:
    """The mod-3 coincidences of the oracle, on fixed and library tables."""

    def test_identity_table(self):
        table = np.eye(3) / 3
        assert coincidence_mod3(table, 0) == pytest.approx(1.0)

    def test_uniform_table(self):
        table = np.full((3, 3), 1 / 9)
        for k in range(3):
            assert coincidence_mod3(table, k) == pytest.approx(1 / 3)

    def test_source_form_computational(self):
        table = pair_table(diagonal_state((1, 1, 1))[:, SWAP_12],
                           computational_basis(), computational_basis())
        # only the (0, 0) cell lies on the k=0 diagonal
        assert coincidence_mod3(table, 0) == pytest.approx(1 / 3)

    def test_normalization_over_k(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            table = pair_table(random_product_mixture(rng),
                               random_basis(rng), random_basis(rng))
            assert abs(sum(coincidence_mod3(table, k) for k in range(3)) - 1.0) < 1e-10


class TestS3Exact:
    def test_quantum_maximum_at_canonical_settings(self):
        value = s3(diagonal_state((1.0, 1.0, 1.0)), canonical_settings())
        assert value == pytest.approx(QUANTUM_MAX, abs=1e-12)
        assert value == pytest.approx(2.87293, abs=1e-4)
        assert value > CLASSICAL_BOUND

    def test_convention_pin(self):
        # The term mapping is fixed by requiring the closed-form maximum;
        # swapping the two difference classes would give a smaller value.
        table = pair_table(diagonal_state((1.0, 1.0, 1.0)),
                           phase_rows("A", [0.0]), phase_rows("B", [0.25]))
        k_minus_one = coincidence_mod3(table, 1)   # A = B - 1
        k_plus_one = coincidence_mod3(table, 2)    # A = B + 1
        assert k_minus_one != pytest.approx(k_plus_one)
        wrong = 0.0
        cs = canonical_settings()
        for (a, b_), k0, k1 in [((1, 1), 0, 2), ((2, 1), 2, 0), ((2, 2), 0, 2), ((1, 2), 0, 1)]:
            t = pair_table(diagonal_state((1.0, 1.0, 1.0)),
                           getattr(cs, f"a{a}"), getattr(cs, f"b{b_}"))
            wrong += coincidence_mod3(t, k0) - coincidence_mod3(t, k1)
        assert wrong < QUANTUM_MAX - 0.5

    def test_white_state_zero(self):
        rng = np.random.default_rng(3)
        white = MixedState(white_noise_weight=1.0)
        assert s3(white, canonical_settings()) == pytest.approx(0.0, abs=1e-12)
        assert s3(white, random_settings(rng)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("visibility", [0.25, 0.5, 0.75])
    def test_visibility_scaling(self, visibility):
        mixed = MixedState.isotropic(diagonal_state((1.0, 1.0, 1.0)), visibility)
        assert s3(mixed, canonical_settings()) == pytest.approx(
            visibility * QUANTUM_MAX, abs=1e-9)

    @pytest.mark.parametrize("offsets, message", [
        ((0.0, 0.5, 0.25), "offsets must have shape (4,), got shape (3,)"),
        ((0.0, 0.5, 0.25, -0.25, 1.0), "offsets must have shape (4,), got shape (5,)"),
        ((0.0, float("nan"), 0.25, -0.25), "offsets must be finite, got nan"),
        ((0.0, 0.5, float("inf"), -0.25), "offsets must be finite, got inf"),
        ("0.0", "offsets must be reals, got dtype <U3"),
        (((0.0, 0.5), (0.25, -0.25)), "offsets must have shape (4,), got shape (2, 2)"),
    ], ids=["offsets0", "offsets1", "offsets2", "offsets3", "0.0", "offsets5"])
    def test_offsets_must_be_four_finite_reals(self, offsets, message):
        with pytest.raises(ValidationError) as info:
            canonical_settings(offsets)
        assert str(info.value) == message

    def test_closed_form_oracle_random_offsets(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            offsets = rng.uniform(-2, 2, size=4)
            coeffs = rng.uniform(0.05, 1.0, size=3)
            coeffs /= np.linalg.norm(coeffs)
            got = s3(diagonal_state(coeffs), canonical_settings(offsets))
            assert got == pytest.approx(s3_closed_form(coeffs, offsets), abs=1e-10)
            # the phase family is written for the Schmidt-diagonal form: on the
            # source form, B's labels 1 and 2 exchanged, it sees no correlation at all
            source_form = diagonal_state(coeffs)[:, SWAP_12]
            assert abs(s3(source_form, canonical_settings(offsets))) < 1e-12

    def test_profile_matches_coefficient_path(self):
        # the exact evaluation (correlation profile) and the estimator's
        # signed coefficient matrices must encode the same expression
        rng = np.random.default_rng(8)
        for _ in range(20):
            mixed = random_product_mixture(rng)
            settings = random_settings(rng)
            via_coeffs = 0.0
            for a, b_ in ((1, 1), (2, 1), (2, 2), (1, 2)):
                coeff = bell.S3_COEFFICIENTS[a - 1, :, b_ - 1, :]
                table = pair_table(mixed, getattr(settings, f"a{a}"),
                                   getattr(settings, f"b{b_}"))
                via_coeffs += float((coeff * table).sum())
            assert s3(mixed, settings) == pytest.approx(via_coeffs, abs=1e-12)

    def test_mod3_coincidences_normalized(self):
        t = canonical_settings().tables(diagonal_state((1.0, 1.0, 1.0)))
        profile = {(a, b_): np.array([coincidence_mod3(t[a - 1, :, b_ - 1, :], k)
                                      for k in range(3)])
                   for a in (1, 2) for b_ in (1, 2)}
        assert set(profile) == {(1, 1), (1, 2), (2, 1), (2, 2)}
        for p in profile.values():
            assert p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_returns_a_float(self):
        assert isinstance(s3(diagonal_state((1.0, 1.0, 1.0)), canonical_settings()), float)

    def test_linearity_in_mixture(self):
        rng = np.random.default_rng(5)
        settings = random_settings(rng)
        psi1 = diagonal_state((1.0, 1.0, 1.0))
        psi2 = diagonal_state((1, 0, 0))[:, SWAP_12]
        mixed = MixedState(components=((0.3, psi1), (0.45, psi2)),
                           white_noise_weight=0.25)
        expected = 0.3 * s3(psi1, settings) + 0.45 * s3(psi2, settings)
        assert s3(mixed, settings) == pytest.approx(expected, abs=1e-12)

    def test_no_signalling(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            mixed = random_product_mixture(rng)
            basis_a = random_basis(rng)
            t1 = pair_table(mixed, basis_a, random_basis(rng))
            t2 = pair_table(mixed, basis_a, random_basis(rng))
            assert np.allclose(t1.sum(axis=1), t2.sum(axis=1), atol=1e-10)

    def test_separable_bound_sample(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            mixed = random_product_mixture(rng)
            assert s3(mixed, random_settings(rng)) <= CLASSICAL_BOUND + 1e-9


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
            assert abs(s3(mixed, settings) - expected) < 1e-13

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
        white = MixedState.isotropic(diagonal_state((1.0, 1.0, 1.0)), 0.0)
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
            value, grad = bell._phase_polynomial(
                offsets, bell._phase_weights(bell._phase_coefficients(state)))
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
            value, grad = bell._phase_polynomial(
                offsets, bell._phase_weights(bell._phase_coefficients(mixed)))
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

    def test_unitary_family_two_components_and_noise(self):
        # the eigenvalues of H coincide at params = 0, where the divided
        # differences of exp(iH) fall back to their derivative limit
        base = canonical_settings()
        base = np.stack((base.a1, base.a2, base.b1, base.b2))
        mixed = MixedState(components=((0.55, diagonal_state((1.0, 1.0, 1.0))),
                                       (0.3, diagonal_state((0.642, 0.546, 0.539))[:, SWAP_12])),
                           white_noise_weight=0.15)

        def kernel_value(x):
            rows = (bell._unitaries(x.reshape(4, 8))[0] @ base).reshape(2, 6, 3)
            return kernel_s3(*rows, mixed.psis, mixed.weights, mixed.white_noise_weight)

        rng = np.random.default_rng(44)
        stack = np.vstack([np.zeros(32)] + [rng.normal(scale=0.8, size=32) for _ in range(5)])
        calls = []
        kernel = bell.born_amplitudes

        def counting_kernel(*args):
            calls.append(1)
            return kernel(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bell, "born_amplitudes", counting_kernel)
            values, grads = bell._unitary_s3_gradient(stack, mixed.psis, mixed.weights)
        assert len(calls) == 1
        assert values.shape == (6,) and grads.shape == (6, 32)
        for x, value, grad in zip(stack, values, grads):
            alone, alone_grad = bell._unitary_s3_gradient(x, mixed.psis, mixed.weights)
            assert value == alone and np.array_equal(grad, alone_grad)
            assert value == pytest.approx(kernel_value(x), abs=1e-12)
            assert np.max(np.abs(grad - central_difference(kernel_value, x))) <= 1e-8


def random_entangled_mixture(rng, n_components):
    """Non-diagonal pure components (complex, entangled) mixed with white noise."""
    weights = rng.dirichlet(np.ones(n_components + 1))
    components = []
    for w in weights[:-1]:
        psi = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        components.append((w, psi / np.linalg.norm(psi)))
    return MixedState(components=tuple(components), white_noise_weight=weights[-1])


class TestPhasePolynomial:
    """The phase-family polynomial against validated ``s3`` at
    ``canonical_settings(x)`` and central differences of it."""

    @staticmethod
    def validated_s3(mixed):
        return lambda x: s3(mixed, canonical_settings(x))

    @pytest.mark.parametrize("n_components", [1, 2, 3])
    def test_value_and_gradient_on_mixtures(self, n_components):
        rng = np.random.default_rng(50 + n_components)
        for _ in range(10):
            mixed = random_entangled_mixture(rng, n_components)
            weights = bell._phase_weights(bell._phase_coefficients(mixed))
            x = rng.uniform(-3, 3, size=4)
            value, grad = bell._phase_polynomial(x, weights)
            assert value == pytest.approx(self.validated_s3(mixed)(x), abs=1e-12)
            expected = central_difference(self.validated_s3(mixed), x)
            assert np.max(np.abs(grad - expected)) <= 1e-6

    def test_zero_components_give_zero(self):
        coefficients = bell._phase_coefficients(MixedState(white_noise_weight=1.0))
        assert coefficients.shape == (100,)
        assert np.all(coefficients == 0.0)
        value, grad = bell._phase_polynomial(np.array(CANONICAL_OFFSETS),
                                             bell._phase_weights(coefficients))
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_offsets_shifted_by_three(self):
        rng = np.random.default_rng(54)
        mixed = random_entangled_mixture(rng, 2)
        weights = bell._phase_weights(bell._phase_coefficients(mixed))
        for _ in range(10):
            x = rng.uniform(-3, 3, size=4)
            value = bell._phase_polynomial(x, weights)[0]
            shift = 3.0 * rng.integers(-2, 3, size=4)
            assert bell._phase_polynomial(x + shift, weights)[0] == pytest.approx(
                value, abs=1e-12)
            assert value == pytest.approx(s3(mixed, canonical_settings(x + shift)), abs=1e-12)

    def test_no_kernel_call_per_solve(self, monkeypatch):
        # the phase polynomial's coefficients come from the level correlation and
        # the gamma family's are built at import: neither solve calls the kernel
        calls = []
        kernel = bell.born_amplitudes

        def counting_kernel(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(bell, "born_amplitudes", counting_kernel)
        optimize_s3(diagonal_state((0.642, 0.546, 0.539)), seed=11)
        assert len(calls) == 0
        optimize_gamma_family(tolerance=1e-8, seed=0, restarts=2)
        assert len(calls) == 0


def isotropic_s3(visibility):
    """S3 of the maximal state under isotropic noise, at the canonical settings."""
    return s3(MixedState.isotropic(diagonal_state((1.0, 1.0, 1.0)), visibility),
              canonical_settings())


class TestVisibilityLaw:
    def test_endpoints(self):
        assert isotropic_s3(1.0) == pytest.approx(2.87293, abs=1e-4)
        assert isotropic_s3(0.0) == 0.0

    def test_threshold(self):
        assert isotropic_s3(0.6962) == pytest.approx(2.0, abs=1e-3)
        assert VISIBILITY_AT_CLASSICAL_BOUND == pytest.approx(0.69615, abs=1e-5)
        mixed = MixedState.isotropic(diagonal_state((1.0, 1.0, 1.0)),
                                     VISIBILITY_AT_CLASSICAL_BOUND)
        assert s3(mixed, canonical_settings()) == pytest.approx(2.0, abs=1e-12)

    def test_range_check(self):
        with pytest.raises(ValidationError):
            isotropic_s3(1.5)
        with pytest.raises(ValidationError):
            isotropic_s3(-0.1)


class TestOptimizer:
    def test_phase_family_reaches_maximum(self):
        result = optimize_s3(diagonal_state((1.0, 1.0, 1.0)), family="phase",
                             tolerance=1e-7, seed=1, restarts=8)
        assert result.s3 == pytest.approx(QUANTUM_MAX, abs=1e-4)
        assert result.converged

    def test_symmetric_under_setting_exchange(self):
        # exchanging both sides' setting labels is a symmetry of the family
        # once each relabeled basis absorbs a cyclic outcome shift (integer
        # offset change); this point reproduces the maximum exactly
        exchanged = canonical_settings((0.5, 1.0, -0.25, -0.75))
        value = s3(diagonal_state((1.0, 1.0, 1.0)), exchanged)
        assert value == pytest.approx(QUANTUM_MAX, abs=1e-12)
        # the multi-start optimizer reaches the same maximum from any seed
        for seed in (4, 5):
            result = optimize_s3(diagonal_state((1.0, 1.0, 1.0)), family="phase",
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
        assert type(result.gamma) is float and type(result.s3) is float
        assert result.s3 == pytest.approx(NONMAX_QUANTUM_MAX, abs=1e-3)
        assert result.gamma == pytest.approx(0.7923, abs=0.01)
        # cross-check against a dense 1-D scan of the closed form
        grid = np.linspace(0.5, 1.1, 2001)
        scan_max = max(s3_gamma_closed_form(g) for g in grid)
        assert result.s3 == pytest.approx(scan_max, abs=1e-4)

    def test_deterministic_for_seed(self):
        r1 = optimize_s3(diagonal_state((1.0, 1.0, 1.0)), tolerance=1e-6, seed=9, restarts=4)
        r2 = optimize_s3(diagonal_state((1.0, 1.0, 1.0)), tolerance=1e-6, seed=9, restarts=4)
        assert r1.s3 == r2.s3
        assert np.array_equal(r1.params, r2.params)

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            optimize_s3(diagonal_state((1.0, 1.0, 1.0)), tolerance=0.0)
        with pytest.raises(ValidationError):
            optimize_s3(diagonal_state((1.0, 1.0, 1.0)), family="gradient")

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -3}, {"restarts": 2.0},
                                        {"tolerance": float("nan")},
                                        {"tolerance": float("inf")},
                                        {"tolerance": 1e300}, {"tolerance": 1.0},
                                        {"restarts": True}, {"restarts": np.bool_(True)},
                                        {"seed": -1}, {"seed": 1.5}, {"seed": "3"},
                                        {"seed": True}, {"seed": np.int64(-2)}])
    def test_bad_solver_inputs(self, kwargs):
        with pytest.raises(ValidationError):
            optimize_s3(diagonal_state((1.0, 1.0, 1.0)), **kwargs)
        with pytest.raises(ValidationError):
            optimize_gamma_family(**kwargs)

    def test_numpy_integer_seed(self):
        state = diagonal_state((1.0, 0.7, 0.4))
        for family in ("phase", "unitary"):
            ours = optimize_s3(state, family=family, seed=np.int64(3), restarts=3)
            assert np.array_equal(ours.params,
                                  optimize_s3(state, family=family, seed=3, restarts=3).params)
        gamma = optimize_gamma_family(seed=np.uint8(3), restarts=3)
        assert gamma.gamma == optimize_gamma_family(seed=3, restarts=3).gamma

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
                us = bell._unitaries(result.params.reshape(4, 8))[0]
                base = canonical_settings()
                rows_a = np.concatenate((us[0] @ base.a1, us[1] @ base.a2))
                rows_b = np.concatenate((us[2] @ base.b1, us[3] @ base.b2))
            assert kernel_s3(rows_a, rows_b, psis, np.ones(1)) == pytest.approx(
                result.s3, abs=1e-13)

    def test_validations_do_not_grow_with_evaluations(self, monkeypatch):
        validations, evaluations = [], []
        validate, kernel = linalg.require_orthonormal, bell.born_amplitudes

        def counting_validate(*args, **kwargs):
            validations.append(1)
            return validate(*args, **kwargs)

        def counting_kernel(rows_a, *args):
            # one evaluation per parameter row: the leading stack of rows_a
            evaluations.append(int(np.prod(rows_a.shape[:-3])))
            return kernel(rows_a, *args)

        monkeypatch.setattr(linalg, "require_orthonormal", counting_validate)
        monkeypatch.setattr(bell, "require_orthonormal", counting_validate)
        monkeypatch.setattr(bell, "born_amplitudes", counting_kernel)
        counts = []
        for tolerance in (1e-1, 1e-6):
            validations.clear()
            evaluations.clear()
            optimize_s3(diagonal_state((1.0, 1.0, 1.0)), family="unitary",
                        tolerance=tolerance, seed=1, restarts=4)
            counts.append((len(validations), sum(evaluations)))
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
        calls.clear()
        result = optimize_s3(diagonal_state((0.642, 0.546, 0.539)), family="unitary",
                             tolerance=1e-5, seed=2, restarts=4)
        assert result.converged
        assert 0 < len(calls) <= 1000

    def test_unitary_parameterization(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            u = bell._unitaries(rng.normal(size=8))[0]
            assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)


def lbfgsb_best(objective, starts, tolerance):
    """Best value scipy's L-BFGS-B reaches from ``starts`` on the single-row
    ``objective``, with the solver's gtol and ftol: an independent reference."""
    from scipy.optimize import minimize

    def negated(x):
        value, grad = objective(x)
        return -value, -grad

    options = {"gtol": tolerance, "ftol": tolerance * 1e-2, "maxiter": 4000}
    return max(-minimize(negated, x0, jac=True, method="L-BFGS-B", options=options).fun
               for x0 in starts)


class TestAscent:
    """The stacked BFGS ascent ``bell._ascend`` behind every Bell solve."""

    @staticmethod
    def phase_objective(coefficients):
        weights = bell._phase_weights(
            bell._phase_coefficients(MixedState.pure(diagonal_state(coefficients))))
        return lambda x: bell._phase_polynomial(x, weights)

    @staticmethod
    def gamma_objective():
        return bell._gamma_s3_gradient

    @pytest.mark.parametrize("seed", [61, 62, 63, 64])
    def test_phase_solve_reaches_lbfgsb_best(self, seed):
        coefficients = np.random.default_rng(seed).uniform(0.05, 1.0, size=3)
        result = optimize_s3(diagonal_state(coefficients), seed=seed)
        # optimize_s3's starts: the canonical offsets, then uniform draws
        rng = np.random.default_rng(seed)
        starts = np.vstack((CANONICAL_OFFSETS, rng.uniform(0.0, 3.0, size=(19, 4))))
        assert result.converged
        assert result.s3 >= lbfgsb_best(self.phase_objective(coefficients), starts,
                                        1e-6) - 1e-10

    def test_each_restart_as_if_solved_alone(self):
        rng = np.random.default_rng(65)
        phase = (self.phase_objective(rng.uniform(0.05, 1.0, size=3)),
                 np.vstack((CANONICAL_OFFSETS, rng.uniform(0.0, 3.0, size=(11, 4)))), 1e-6)
        gamma = (self.gamma_objective(),
                 rng.uniform((0.2, 0.0, 0.0, 0.0, 0.0), (1.5, 3.0, 3.0, 3.0, 3.0), size=(6, 5)),
                 1e-8)
        mixed = MixedState.pure(diagonal_state((0.642, 0.546, 0.539)))
        unitary = (lambda x: bell._unitary_s3_gradient(x, mixed.psis, mixed.weights),
                   rng.normal(scale=0.6, size=(3, 32)), 1e-5)
        for objective, starts, tolerance in (phase, gamma, unitary):
            x, values, converged = bell._ascend(objective, starts, tolerance, 4000)
            assert x.shape == starts.shape
            for i, start in enumerate(starts):
                _, alone, alone_converged = bell._ascend(objective, start[None], tolerance, 4000)
                assert values[i] == pytest.approx(alone[0], abs=1e-12)
                assert converged[i] == alone_converged[0]

    def test_rejected_steps_retry_inside_the_stacked_call(self):
        # -sqrt(w^2 + u^2) in u, the width w = x[:, 1] fixed per row: the
        # narrow cone rejects its first step, the middle one its second and
        # the wide one none
        def cone(x):
            r = np.sqrt(x[:, 1] ** 2 + x[:, 0] ** 2)
            return -r, np.stack((-x[:, 0] / r, np.zeros(len(x))), axis=1)

        def visits(starts):
            calls = []
            bell._ascend(lambda x: calls.append(x.copy()) or cone(x), starts, 1e-9, 4000)
            return calls

        starts = np.array([[0.3, 0.01], [5.0, 1.0], [2.0, 3.0]])
        alone = [np.concatenate(visits(start[None])) for start in starts]
        values = [cone(points)[0] for points in alone]
        rejected = [[i for i in range(1, len(v)) if v[i] < v[:i].max()] for v in values]
        assert rejected[0][0] == 1 and rejected[1][0] == 2 and not rejected[2]
        # call c takes every row still live, each at the c-th point it visits alone
        expected = [np.array([points[c] for points in alone if len(points) > c])
                    for c in range(max(map(len, alone)))]
        stacked = visits(starts)
        assert len(stacked) == len(expected)
        for got, want in zip(stacked, expected):
            assert np.array_equal(got, want)

    def test_values_never_fall(self):
        objective = self.phase_objective((0.642, 0.546, 0.539))
        starts = np.random.default_rng(66).uniform(0.0, 3.0, size=(10, 4))
        _, values, _ = bell._ascend(objective, starts, 1e-6, 4000)
        assert np.all(values >= objective(starts)[0])

    def test_iteration_cap_is_not_convergence(self):
        objective = self.phase_objective((0.642, 0.546, 0.539))
        start = np.array([[0.3, 1.1, 2.0, 0.7]])
        assert np.abs(objective(start)[1]).max() > 1e-2
        x, values, converged = bell._ascend(objective, start, 1e-6, maxiter=1)
        assert not converged[0]
        assert values[0] > objective(start)[0][0]
        assert not bell._ascend(self.gamma_objective(), np.array([[0.4, 0.3, 1.1, 2.0, 0.7]]),
                                1e-8, maxiter=1)[2][0]

    def test_start_at_optimum_converges_in_place(self):
        state = diagonal_state((1.0, 1.0, 1.0))
        phase = optimize_s3(state, restarts=1)
        assert phase.converged
        assert np.array_equal(phase.params, CANONICAL_OFFSETS)
        assert phase.s3 == pytest.approx(QUANTUM_MAX, abs=1e-12)
        unitary = optimize_s3(state, family="unitary", restarts=1)
        assert unitary.converged
        assert np.array_equal(unitary.params, np.zeros(32))
        assert unitary.s3 == pytest.approx(QUANTUM_MAX, abs=1e-12)

    def test_ties_go_to_the_earlier_restart(self):
        # -(x^2 - 1)^2 has equal maxima at -1 and 1, reached from mirrored
        # starts by mirrored arithmetic, so the two values tie exactly
        def double_well(x):
            return -((x * x - 1.0) ** 2).sum(axis=1), -4.0 * x * (x * x - 1.0)

        for starts in ([[0.5], [-0.5]], [[-0.5], [0.5]]):
            x, values, _ = bell._ascend(double_well, np.array(starts), 1e-9, 4000)
            assert values[0] == values[1]
            best, converged = bell._best(double_well, np.array(starts), 1e-9, 4000)
            assert converged
            assert np.array_equal(best, x[0])
            assert np.sign(best[0]) == np.sign(starts[0][0])
