import warnings

import numpy as np
import pytest

from qutrit_qkd import linalg
from qutrit_qkd.bell import SettingsPair
from qutrit_qkd.linalg import (
    MixedState,
    ValidationError,
    born_amplitudes,
    born_tables,
    computational_basis,
    diagonal_state,
    normalize_coefficients,
    orthonormality_residual,
    phase_rows,
)
from qutrit_qkd.protocol import SWAP_12

from oracles import born_probability_bruteforce, random_basis


def state_norm_sq(state):
    return float(np.sum(np.abs(state) ** 2))


def random_state(rng):
    psi = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return psi / np.linalg.norm(psi)


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


def source_form(coeffs):
    """The source's a|00> + b|12> + c|21>, as ``SourceConfig`` builds it."""
    return diagonal_state(coeffs)[:, SWAP_12]


class TestMakeState:
    """The source form: the Schmidt-diagonal state with B's labels 1 and 2 exchanged."""

    def test_equal_coefficients(self):
        psi = source_form((1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3)))
        for cell in [(0, 0), (1, 2), (2, 1)]:
            assert psi[cell] == pytest.approx(0.57735, abs=1e-5)
        assert state_norm_sq(psi) == pytest.approx(1.0, abs=1e-12)

    def test_single_term(self):
        psi = source_form((1, 0, 0))
        expected = np.zeros((3, 3))
        expected[0, 0] = 1
        assert np.allclose(psi, expected)

    def test_measured_coefficients_renormalized(self):
        psi = source_form((0.642, 0.546, 0.539))
        assert abs(psi[0, 0]) ** 2 == pytest.approx(0.642 ** 2 / 1.000801, rel=1e-6)
        assert state_norm_sq(psi) == pytest.approx(1.0, abs=1e-12)
        _, divisor = normalize_coefficients((0.642, 0.546, 0.539))
        assert divisor ** 2 == pytest.approx(1.000801, rel=1e-6)

    def test_zero_coefficients_rejected(self):
        with pytest.raises(ValidationError, match="all-zero"):
            source_form((0.0, 0.0, 0.0))

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValidationError):
            source_form((0.5, -0.5, 0.5))

    def test_random_triples_normalized(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            psi = source_form(rng.uniform(0.01, 5.0, size=3))
            assert abs(state_norm_sq(psi) - 1.0) < 1e-12


def normalized_under_errstate(coeffs):
    """``normalize_coefficients``' expression with the norm always taken under
    ``np.errstate(over="ignore")``, as it was at every size."""
    c = np.asarray(coeffs, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(c))
    if not 0.0 < norm < np.inf and c.max() > 0.0:
        unit, divisor = normalized_under_errstate(c / c.max())
        return unit, float(c.max()) * divisor
    return c / norm, norm


class TestNormalizeCoefficients:
    def test_squared_norm_cannot_overflow_below_the_switch(self):
        assert 3 * linalg._NO_OVERFLOW ** 2 < np.finfo(float).max

    # the switch to np.errstate at 1e150, and the overflow of the squared norm
    # between 7e153 and 8e153 (three equal entries)
    @pytest.mark.parametrize("top", [1e150, 1e151, 7e153, 8e153, 1e200, 1e308])
    @pytest.mark.parametrize("shape", [(1.0, 1.0, 1.0), (1.0, 0.5, 0.0), (1.0, 1e-200, 3e-170)])
    def test_same_bits_on_either_side_of_the_switch(self, top, shape):
        coeffs = tuple(top * x for x in shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit, divisor = normalize_coefficients(coeffs)
        want_unit, want_divisor = normalized_under_errstate(coeffs)
        assert unit.tobytes() == want_unit.tobytes()
        assert type(divisor) is float and divisor == want_divisor
        assert abs(state_norm_sq(unit) - 1.0) <= 1e-15


class TestRelabel:
    """The B-side 1<->2 relabel is ``psi[:, SWAP_12]``."""

    def test_maps_source_form_to_diagonal(self):
        assert np.allclose(source_form((1, 1, 1))[:, SWAP_12], diagonal_state((1.0, 1.0, 1.0)))

    def test_involution(self):
        rng = np.random.default_rng(2)
        psi = random_state(rng)
        assert np.allclose(psi[:, SWAP_12][:, SWAP_12], psi)

    def test_product_state_fixed_point(self):
        psi = source_form((1, 0, 0))
        assert np.allclose(psi[:, SWAP_12], psi)

    def test_preserves_inner_products(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = random_state(rng), random_state(rng)
            before = np.vdot(a, b)
            after = np.vdot(a[:, SWAP_12], b[:, SWAP_12])
            assert abs(before - after) < 1e-12


class TestPhaseBasis:
    """A single phase basis is ``phase_rows(party, [offset])``."""

    def test_offset_zero_is_fourier(self):
        j, k = np.meshgrid(np.arange(3), np.arange(3))
        dft = np.exp(2j * np.pi * j * k / 3) / np.sqrt(3)
        assert np.allclose(phase_rows("A", [0.0]), dft)

    def test_orthonormal_for_any_offset(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            offset = rng.uniform(-5, 5)
            for party in ("A", "B"):
                assert orthonormality_residual(phase_rows(party, [offset])) < 1e-12

    def test_bad_party(self):
        with pytest.raises(ValidationError):
            phase_rows("C", [0.0])


def joint_probability(mixed, basis_a, k, basis_b, l):
    """One cell of the Born kernel's table for a single basis per side."""
    return born_tables(basis_a, basis_b, mixed.psis, mixed.weights,
                       mixed.white_noise_weight)[0, k, 0, l]


def random_product_mixture(rng, n):
    weights = rng.dirichlet(np.ones(n + 1))
    components = []
    for i in range(n):
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        components.append((weights[i], np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))))
    return MixedState(components=tuple(components), white_noise_weight=weights[-1])


class TestJointProbability:
    def test_white_uniform(self):
        rng = np.random.default_rng(5)
        basis_a, basis_b = random_basis(rng), random_basis(rng)
        white = MixedState(white_noise_weight=1.0)
        for k in range(3):
            for l in range(3):
                p = joint_probability(white, basis_a, k, basis_b, l)
                assert p == pytest.approx(1 / 9, abs=1e-12)

    def test_computational_eigenstate(self):
        mixed = MixedState.pure(source_form((1, 0, 0)))
        comp = computational_basis()
        assert joint_probability(mixed, comp, 0, comp, 0) == pytest.approx(1.0)

    def test_maximal_state_support(self):
        mixed = MixedState.pure(source_form((1, 1, 1)))
        comp = computational_basis()
        assert joint_probability(mixed, comp, 1, comp, 2) == pytest.approx(1 / 3)
        assert joint_probability(mixed, comp, 1, comp, 1) == pytest.approx(0.0, abs=1e-15)

    def test_non_orthonormal_basis_rejected(self):
        bad = np.eye(3, dtype=complex)
        bad[1, 0] = 0.5
        comp = computational_basis()
        with pytest.raises(ValidationError):
            SettingsPair(a1=bad, a2=comp, b1=comp, b2=comp)
        nan = np.full((3, 3), np.nan, dtype=complex)
        with pytest.raises(ValidationError):
            SettingsPair(a1=nan, a2=comp, b1=comp, b2=comp)
        with pytest.raises(ValidationError):
            SettingsPair(a1=comp, a2=comp, b1=comp, b2=nan)

    def test_born_totals(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            white = rng.uniform(0, 1)
            w1 = (1 - white) * rng.uniform(0, 1)
            w2 = 1 - white - w1
            mixed = MixedState(
                components=((w1, random_state(rng)), (w2, random_state(rng))),
                white_noise_weight=white,
            )
            basis_a, basis_b = random_basis(rng), random_basis(rng)
            total = sum(
                joint_probability(mixed, basis_a, k, basis_b, l)
                for k in range(3) for l in range(3)
            )
            assert abs(total - 1.0) < 1e-10

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            psi = random_state(rng)
            mixed = MixedState.pure(psi)
            basis_a, basis_b = random_basis(rng), random_basis(rng)
            k, l = rng.integers(0, 3, size=2)
            expected = born_probability_bruteforce(
                [(1.0, psi)], 0.0, basis_a, int(k), basis_b, int(l))
            got = joint_probability(mixed, basis_a, int(k), basis_b, int(l))
            assert abs(got - expected) < 1e-12

    def test_mixture_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            comps = [(0.3, random_state(rng)), (0.5, random_state(rng))]
            mixed = MixedState(components=tuple(comps), white_noise_weight=0.2)
            basis_a, basis_b = random_basis(rng), random_basis(rng)
            k, l = rng.integers(0, 3, size=2)
            expected = born_probability_bruteforce(
                comps, 0.2, basis_a, int(k), basis_b, int(l))
            assert abs(joint_probability(mixed, basis_a, int(k), basis_b, int(l))
                       - expected) < 1e-12


class TestBornTables:
    def check_against_oracle(self, mixed, bases_a, bases_b):
        tables = born_tables(np.concatenate(bases_a), np.concatenate(bases_b),
                             mixed.psis, mixed.weights, mixed.white_noise_weight)
        assert tables.shape == (len(bases_a), 3, len(bases_b), 3)
        comps = [(w, psi) for w, psi in mixed.components]
        for i, basis_a in enumerate(bases_a):
            for j, basis_b in enumerate(bases_b):
                for k in range(3):
                    for l in range(3):
                        expected = born_probability_bruteforce(
                            comps, mixed.white_noise_weight, basis_a, k, basis_b, l)
                        assert abs(tables[i, k, j, l] - expected) < 1e-13

    def test_product_mixtures_match_bruteforce_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            mixed = random_product_mixture(rng, int(rng.integers(1, 5)))
            bases_a = [random_basis(rng) for _ in range(int(rng.integers(1, 4)))]
            bases_b = [random_basis(rng) for _ in range(int(rng.integers(1, 4)))]
            self.check_against_oracle(mixed, bases_a, bases_b)

    def test_white_only_mixtures(self):
        rng = np.random.default_rng(22)
        white = MixedState(white_noise_weight=1.0)
        assert white.psis.shape == (0, 3, 3) and white.weights.shape == (0,)
        for n_a, n_b in [(1, 1), (2, 3), (3, 2)]:
            bases_a = [random_basis(rng) for _ in range(n_a)]
            bases_b = [random_basis(rng) for _ in range(n_b)]
            self.check_against_oracle(white, bases_a, bases_b)
            self.check_against_oracle(MixedState.isotropic(diagonal_state((1.0, 1.0, 1.0)), 0.0),
                                      bases_a, bases_b)

    def test_row_stacks_broadcast_against_states(self):
        # rows (k, 1, r, 3) against states (m, 3, 3): amplitudes (k, m, r, c),
        # slice i equal to the 2-D call on rows i
        rng = np.random.default_rng(23)
        psis = np.stack([random_state(rng) for _ in range(2)])
        rows_a = np.stack([np.concatenate((random_basis(rng), random_basis(rng)))
                           for _ in range(4)])
        rows_b = np.stack([random_basis(rng) for _ in range(4)])
        amps = born_amplitudes(rows_a[:, None], rows_b[:, None], psis)
        assert amps.shape == (4, 2, 6, 3)
        for i in range(4):
            assert np.array_equal(amps[i], born_amplitudes(rows_a[i], rows_b[i], psis))
            for s, psi in enumerate(psis):
                for r in range(6):
                    for c in range(3):
                        expected = born_probability_bruteforce(
                            [(1.0, psi)], 0.0, rows_a[i], r, rows_b[i], c)
                        assert abs(abs(amps[i, s, r, c]) ** 2 - expected) < 1e-13

    def test_phase_rows_stack_phase_bases(self):
        offsets = [0.0, 0.5, -1.25, 2.75]
        for party in ("A", "B"):
            rows = phase_rows(party, offsets)
            assert rows.shape == (12, 3)
            for i, offset in enumerate(offsets):
                assert np.array_equal(rows[3 * i:3 * i + 3], phase_rows(party, [offset]))


class TestMixedState:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            MixedState(components=((0.5, diagonal_state((1.0, 1.0, 1.0))),),
                       white_noise_weight=0.6)
        with pytest.raises(ValidationError):
            MixedState(components=((1.0, diagonal_state((1.0, 1.0, 1.0))),),
                       white_noise_weight=float("nan"))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            MixedState(components=((-0.1, diagonal_state((1.0, 1.0, 1.0))),),
                       white_noise_weight=1.1)
        with pytest.raises(ValidationError):
            MixedState(components=((float("nan"), diagonal_state((1.0, 1.0, 1.0))),),
                       white_noise_weight=1.0)

    def test_component_must_be_normalized(self):
        with pytest.raises(ValidationError):
            MixedState(components=((1.0, np.eye(3, dtype=complex)),))
        with pytest.raises(ValidationError):
            MixedState.pure(np.full((3, 3), np.nan, dtype=complex))

    def test_pure_is_the_one_component_mixture(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            state = random_state(rng)
            assert_same_mixture(MixedState.pure(state), MixedState(((1.0, state),)))

    @pytest.mark.parametrize("visibility", [0.0, 0.3, 1.0])
    def test_isotropic_is_the_constructors_mixture(self, visibility):
        rng = np.random.default_rng(45)
        for _ in range(20):
            state = random_state(rng)
            want = (MixedState(((visibility, state),), 1 - visibility) if visibility
                    else MixedState(white_noise_weight=1.0))
            assert_same_mixture(MixedState.isotropic(state, visibility), want)

    def test_state_checked_at_visibility_zero(self):
        state = random_state(np.random.default_rng(46)) * np.sqrt(1.1)
        with pytest.raises(ValidationError) as want:
            MixedState(((1.0, state),))
        assert str(want.value) == (f"state norm^2 = {np.vdot(state, state).real:.15f} "
                                   "deviates from 1 by more than 1e-12")
        for build in (MixedState.pure, lambda s: MixedState.isotropic(s, 0.0)):
            with pytest.raises(ValidationError) as got:
                build(state)
            assert str(got.value) == str(want.value)

    def test_isotropic_range(self):
        with pytest.raises(ValidationError):
            MixedState.isotropic(diagonal_state((1.0, 1.0, 1.0)), 1.2)

    def test_diagonal_state_normalizes(self):
        st = diagonal_state((2.0, 2.0, 1.0))
        assert state_norm_sq(st) == pytest.approx(1.0, abs=1e-12)
        assert st[0, 0] == pytest.approx(2.0 / 3.0)
