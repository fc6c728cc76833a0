"""Three-dimensional Bell parameter S3: exact evaluation and optimization.

The Bell expression combines eight mod-3 coincidence probabilities over two
settings per side.  Outcomes are labeled 0, 1, 2.  ``coincidence_mod3(T, k)``
is the probability that B's outcome exceeds A's by k (mod 3); the terms
"A = B - 1" and "A = B + 1" of the inequality therefore map to k = 1 and
k = 2 respectively.  This convention is pinned by a unit test reproducing
the quantum maximum 4/(6*sqrt(3) - 9) at the canonical settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .linalg import (
    DIM,
    MixedState,
    ValidationError,
    born_amplitudes,
    born_tables,
    diagonal_state,
    phase_rows,
    require_orthonormal,
)

CLASSICAL_BOUND = 2.0
QUANTUM_MAX = float(4.0 / (6.0 * np.sqrt(3.0) - 9.0))   # ~2.87293, maximal entanglement
NONMAX_QUANTUM_MAX = float(1.0 + np.sqrt(11.0 / 3.0))   # ~2.91485, gamma ~0.7923
VISIBILITY_AT_CLASSICAL_BOUND = CLASSICAL_BOUND / QUANTUM_MAX

# Offsets (a1, a2, b1, b2) of the phase-basis family achieving QUANTUM_MAX
# on the Schmidt-diagonal maximally entangled state.
CANONICAL_OFFSETS = (0.0, 0.5, 0.25, -0.25)


@dataclass(frozen=True)
class SettingsPair:
    """The two analyzer bases per side used in the Bell test."""

    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            require_orthonormal(getattr(self, name))

    def basis(self, side: str, setting: int) -> np.ndarray:
        return getattr(self, f"{side.lower()}{setting}")

    def tables(self, state) -> np.ndarray:
        """(2, 3, 2, 3) outcome tables [a - 1, k, b - 1, l] of ``state``."""
        mixed = as_mixture(state)
        return born_tables(np.concatenate((self.a1, self.a2)),
                           np.concatenate((self.b1, self.b2)),
                           mixed.psis, mixed.weights, mixed.white_noise_weight)


@dataclass(frozen=True)
class BellValue:
    s3: float
    classical_bound: float = CLASSICAL_BOUND
    quantum_max: float = QUANTUM_MAX

    @property
    def violates_local_realism(self) -> bool:
        return self.s3 > self.classical_bound


def canonical_settings(offsets=CANONICAL_OFFSETS) -> SettingsPair:
    """Phase-basis settings at offsets (a1, a2, b1, b2), canonical by default."""
    return _settings_from_rows(*_phase_family_rows(offsets))


def _phase_family_rows(offsets) -> tuple[np.ndarray, np.ndarray]:
    return phase_rows("A", offsets[:2]), phase_rows("B", offsets[2:4])


def as_mixture(state) -> MixedState:
    if isinstance(state, MixedState):
        return state
    return MixedState.pure(np.asarray(state, dtype=complex))


def outcome_distribution(state, basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    """3x3 joint outcome table; rows index A's outcome, columns B's."""
    require_orthonormal(basis_a)
    require_orthonormal(basis_b)
    mixed = as_mixture(state)
    return born_tables(np.asarray(basis_a), np.asarray(basis_b), mixed.psis,
                       mixed.weights, mixed.white_noise_weight)[0, :, 0, :]


def coincidence_mod3(table: np.ndarray, k: int) -> float:
    """Probability that the outcomes differ by k (mod 3): sum_j T[j, (j+k)%3]."""
    t = np.asarray(table)
    j = np.arange(DIM)
    return float(t[j, (j + k) % DIM].sum())


# Signed coefficient per outcome cell, indexed [a - 1, k, b - 1, l] like the
# tables of ``SettingsPair.tables``, so that S3 is their dot product.  Cell
# (k, l) of pair (a, b) takes the sign listed for its difference class
# (k - l) mod 3: "A = B" is class 0, "A = B - 1" (coincidence k = 1) class 2
# and "A = B + 1" (k = 2) class 1.
_CLASS_SIGNS = np.array([[(1, 0, -1), (1, -1, 0)], [(-1, 0, 1), (1, 0, -1)]], dtype=float)
S3_COEFFICIENTS = _CLASS_SIGNS[:, :, (np.arange(DIM)[:, None] - np.arange(DIM)) % DIM] \
    .transpose(0, 2, 1, 3)
S3_COEFFICIENTS.setflags(write=False)


def _s3_of(tables: np.ndarray) -> float:
    return float(S3_COEFFICIENTS.reshape(-1) @ tables.reshape(-1))


def s3_coefficients() -> dict:
    """The 3x3 coefficient matrix of each setting pair (a, b), as a dict."""
    return {(a, b): S3_COEFFICIENTS[a - 1, :, b - 1, :]
            for a, b in ((1, 1), (2, 1), (2, 2), (1, 2))}


def correlation_profile(state, settings: SettingsPair) -> dict:
    """Mod-3 coincidence probabilities p[(a, b)][k] for the four setting pairs.

    Each length-3 entry sums to 1; k indexes the outcome difference class.
    """
    t = settings.tables(state)
    return {(a, b): np.array([coincidence_mod3(t[a - 1, :, b - 1, :], k) for k in range(3)])
            for a in (1, 2) for b in (1, 2)}


def s3(state, settings: SettingsPair) -> BellValue:
    """Exact S3 for a state (pure or mixed) at the given settings.

    The signed eight-term sum over the correlation profile, evaluated as the
    dot product of ``S3_COEFFICIENTS`` with the outcome tables; the "B - 1"
    terms take k = 1 and the "B + 1" term takes k = 2 (see module docstring).
    """
    return BellValue(s3=_s3_of(settings.tables(state)))


def s3_vs_visibility(visibility: float) -> float:
    """S3 of the isotropic-noise mixture of the maximal state at optimal settings.

    Linear in the visibility; crosses the classical bound 2 at
    ``VISIBILITY_AT_CLASSICAL_BOUND`` (~0.6962).
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValidationError(f"visibility {visibility} outside [0, 1]")
    return visibility * QUANTUM_MAX


# ---------------------------------------------------------------------------
# Optimization of measurement settings
# ---------------------------------------------------------------------------

# Generalized Gell-Mann basis of traceless Hermitian 3x3 matrices.
def _gell_mann() -> np.ndarray:
    g = np.zeros((8, DIM, DIM), dtype=complex)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for i, (a, b) in enumerate(pairs):
        g[2 * i][a, b] = g[2 * i][b, a] = 1.0
        g[2 * i + 1][a, b] = -1j
        g[2 * i + 1][b, a] = 1j
    g[6] = np.diag([1.0, -1.0, 0.0])
    g[7] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
    return g


_GELL_MANN = _gell_mann()


def _unitaries(theta: np.ndarray) -> np.ndarray:
    # exp(iH), H = sum_m theta[..., m] G_m, from one batched eigh H = V diag(w) V^dagger
    w, v = np.linalg.eigh((theta @ _GELL_MANN.reshape(8, -1)).reshape(*theta.shape[:-1], DIM, DIM))
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def unitary_from_params(theta) -> np.ndarray:
    """3x3 unitary exp(i * sum_m theta_m * G_m) from 8 real parameters."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (8,):
        raise ValidationError(f"expected 8 unitary parameters, got shape {theta.shape}")
    return _unitaries(theta)


def random_basis(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthonormal basis from a QR decomposition."""
    z = rng.normal(size=(DIM, DIM)) + 1j * rng.normal(size=(DIM, DIM))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q.conj().T


def _unitary_family_rows(params, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # 8 parameters per basis, perturbing the (4, 3, 3) stack of base bases
    # (a1, a2, b1, b2); the map exp(iH) U0 still ranges over all of U(3).
    bases = _unitaries(np.reshape(params, (4, 8))) @ base
    return bases[:2].reshape(2 * DIM, DIM), bases[2:].reshape(2 * DIM, DIM)


def _settings_from_rows(rows_a: np.ndarray, rows_b: np.ndarray) -> SettingsPair:
    return SettingsPair(a1=rows_a[:DIM], a2=rows_a[DIM:], b1=rows_b[:DIM], b2=rows_b[DIM:])


def _check_solver_inputs(tolerance: float, restarts: int) -> None:
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise ValidationError(f"tolerance must be finite and positive, got {tolerance!r}")
    if not isinstance(restarts, (int, np.integer)) or restarts < 1:
        raise ValidationError(f"restarts must be an integer >= 1, got {restarts!r}")


# d(phase row)/d(offset): level j of every row, of either party, times 2*pi*i*j/3
_PHASE_ROW_DERIVATIVE = 2j * np.pi * np.arange(DIM) / DIM
_S3_CELLS = S3_COEFFICIENTS.reshape(2 * DIM, 2 * DIM)


def _phase_s3_gradient(offsets, psis, weights, dpsis=None):
    """S3 of ``psis`` mixed by ``weights`` at phase offsets (a1, a2, b1, b2),
    with its gradient in the offsets, followed by the derivative along
    ``dpsis`` (the states' derivative in one more parameter) when given.

    One kernel call on stacked inputs yields the amplitudes and each of
    their derivatives; then dS3/dp = sum_m w_m sum C * 2 Re(conj(amp) damp).
    The white-noise part adds nothing: each setting pair's coefficients
    sum to zero.
    """
    rows_a, rows_b = _phase_family_rows(offsets)
    n, m = 2 * DIM, len(psis)
    stacked = psis if dpsis is None else np.concatenate((psis, dpsis))
    amps = born_amplitudes(np.concatenate((rows_a, rows_a * _PHASE_ROW_DERIVATIVE)),
                           np.concatenate((rows_b, rows_b * _PHASE_ROW_DERIVATIVE)),
                           stacked)
    amp = amps[:m, :n, :n]
    weighted = np.asarray(weights)[:, None, None] * _S3_CELLS
    value = float(np.sum(weighted * (amp.real ** 2 + amp.imag ** 2)))
    dcells = 2.0 * weighted * amp.conj()
    grad = [(dcells * amps[:m, n:, :n]).real.reshape(m, 2, DIM, n).sum(axis=(0, 2, 3)),
            (dcells * amps[:m, :n, n:]).real.reshape(m, n, 2, DIM).sum(axis=(0, 1, 3))]
    if dpsis is not None:
        grad.insert(0, [np.sum((dcells * amps[m:, :n, :n]).real)])
    return value, np.concatenate(grad)


def _multistart(objective, starts, tolerance: float, maxiter: int, gradient: bool = False):
    """Best point over local runs from each start, and whether any converged.

    With ``gradient`` the objective returns (value, gradient) and each run is
    L-BFGS-B; otherwise each run is Nelder-Mead on values alone.
    """
    if gradient:
        method = "L-BFGS-B"
        options = {"gtol": tolerance, "ftol": tolerance * 1e-2, "maxiter": maxiter}
    else:
        method = "Nelder-Mead"
        options = {"xatol": tolerance, "fatol": tolerance * 1e-2, "maxiter": maxiter}
    best_x, best_val, converged = None, np.inf, False
    for x0 in starts:
        res = minimize(objective, x0, method=method, jac=gradient, options=options)
        converged = converged or bool(res.success)
        if res.fun < best_val:
            best_val = res.fun
            best_x = res.x
    return best_x, converged


@dataclass(frozen=True)
class OptimizeResult:
    settings: SettingsPair
    s3: float
    converged: bool
    family: str
    params: np.ndarray


def optimize_s3(
    state,
    family: str = "phase",
    tolerance: float = 1e-6,
    seed: int = 0,
    restarts: int = 20,
) -> OptimizeResult:
    """Multi-start search for settings maximizing S3.

    ``family`` selects the search space: "phase" varies the four offsets of
    the Fourier-phase family, by L-BFGS-B on the exact gradient; "unitary"
    varies all four bases over the full local-unitary family (8 parameters
    each), by Nelder-Mead.  Evaluations run the Born kernel on unvalidated
    rows; the reported value is the exact S3 re-evaluated at the returned
    settings.  Deterministic for a fixed seed; ties are broken by restart
    order.
    """
    _check_solver_inputs(tolerance, restarts)
    if family not in ("phase", "unitary"):
        raise ValidationError(f"unknown settings family {family!r}")
    mixed = as_mixture(state)
    rng = np.random.default_rng(seed)

    if family == "phase":
        rows = _phase_family_rows
        starts = [np.asarray(CANONICAL_OFFSETS, dtype=float)]
        starts += [rng.uniform(0.0, 3.0, size=4) for _ in range(restarts - 1)]

        def objective(x):
            value, grad = _phase_s3_gradient(x, mixed.psis, mixed.weights)
            return -value, -grad
    else:
        base = np.concatenate(_phase_family_rows(CANONICAL_OFFSETS)).reshape(4, DIM, DIM)

        def rows(x):
            return _unitary_family_rows(x, base)
        starts = [np.zeros(32)]
        starts += [rng.normal(scale=0.6, size=32) for _ in range(restarts - 1)]

        def objective(x):
            return -_s3_of(born_tables(*rows(x), mixed.psis, mixed.weights,
                                       mixed.white_noise_weight))

    best_x, converged = _multistart(objective, starts, tolerance, maxiter=4000,
                                    gradient=family == "phase")
    settings = _settings_from_rows(*rows(best_x))
    return OptimizeResult(
        settings=settings,
        s3=s3(mixed, settings).s3,
        converged=converged,
        family=family,
        params=np.asarray(best_x),
    )


def _gamma_s3_gradient(x):
    """S3 of (|00> + |g||11> + |22>)/sqrt(2 + g^2) at phase offsets, for
    x = (g, a1, a2, b1, b2), and its gradient in x."""
    g = abs(x[0])
    norm = np.sqrt(2.0 + g * g)
    psi = np.diag((1.0, g, 1.0)) / norm
    dpsi = np.sign(x[0]) * (np.diag((0.0, 1.0, 0.0)) / norm - psi * (g / norm ** 2))
    return _phase_s3_gradient(x[1:], psi[None], np.ones(1), dpsi[None])


@dataclass(frozen=True)
class GammaOptimum:
    gamma: float
    s3: float
    settings: SettingsPair
    converged: bool


def optimize_gamma_family(
    tolerance: float = 1e-7,
    seed: int = 0,
    restarts: int = 12,
) -> GammaOptimum:
    """Jointly optimize the middle Schmidt coefficient and the phase settings.

    Searches over states (|00> + g|11> + |22>)/sqrt(2 + g^2) together with
    the four phase offsets, by multi-start L-BFGS-B on the exact gradient.
    The optimum exceeds the maximal-entanglement value: a non-maximally
    entangled state violates the inequality more.
    """
    _check_solver_inputs(tolerance, restarts)
    rng = np.random.default_rng(seed)

    def objective(x):
        value, grad = _gamma_s3_gradient(x)
        return -value, -grad

    starts = [np.concatenate(([1.0], CANONICAL_OFFSETS))]
    for _ in range(restarts - 1):
        starts.append(np.concatenate((rng.uniform(0.2, 1.5, 1), rng.uniform(0.0, 3.0, 4))))

    best, converged = _multistart(objective, starts, tolerance, maxiter=6000, gradient=True)
    gamma = abs(best[0])
    settings = canonical_settings(best[1:])
    value = s3(diagonal_state((1.0, gamma, 1.0)), settings).s3
    return GammaOptimum(gamma=gamma, s3=value, settings=settings, converged=converged)
