"""Three-dimensional Bell parameter S3: exact evaluation and optimization.

The Bell expression combines eight mod-3 coincidence probabilities over two
settings per side.  Outcomes are labeled 0, 1, 2; coincidence k is the
probability that B's outcome exceeds A's by k (mod 3), so the terms
"A = B - 1" and "A = B + 1" of the inequality map to k = 1 and k = 2.
``S3_COEFFICIENTS`` states this convention cell by cell, and S3 is its dot
product with the outcome tables.  A unit test pins it by reproducing the
quantum maximum 4/(6*sqrt(3) - 9) at the canonical settings.

States are taken in the Schmidt-diagonal form a|00> + b|11> + c|22> of
``diagonal_state``, the form the phase-family settings of Collins, Gisin,
Linden, Massar and Popescu are written for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DIM,
    MixedState,
    ValidationError,
    born_amplitudes,
    born_tables,
    diagonal_state,
    phase_rows,
    require_array,
    require_integer,
    require_orthonormal,
    require_real,
)

CLASSICAL_BOUND = 2.0
QUANTUM_MAX = float(4.0 / (6.0 * np.sqrt(3.0) - 9.0))   # ~2.87293, maximal entanglement
NONMAX_QUANTUM_MAX = float(1.0 + np.sqrt(11.0 / 3.0))   # ~2.91485, gamma ~0.7923
VISIBILITY_AT_CLASSICAL_BOUND = CLASSICAL_BOUND / QUANTUM_MAX
MAX_RESTARTS = 10_000   # a solve allocates its whole stack of starts at once

# Offsets (a1, a2, b1, b2) of the phase-basis family achieving QUANTUM_MAX
# on the Schmidt-diagonal maximally entangled state.
CANONICAL_OFFSETS = (0.0, 0.5, 0.25, -0.25)


@dataclass(frozen=True, eq=False)
class SettingsPair:
    """The two analyzer bases per side used in the Bell test."""

    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            require_orthonormal(getattr(self, name))

    def tables(self, state) -> np.ndarray:
        """(2, 3, 2, 3) outcome tables [a - 1, k, b - 1, l] of ``state``."""
        mixed = as_mixture(state)
        return born_tables(np.concatenate((self.a1, self.a2)),
                           np.concatenate((self.b1, self.b2)),
                           mixed.psis, mixed.weights, mixed.white_noise_weight)


def canonical_settings(offsets=CANONICAL_OFFSETS) -> SettingsPair:
    """Phase-basis settings at four finite real offsets (a1, a2, b1, b2), canonical
    by default; any other ``offsets`` raise ``ValidationError``."""
    return SettingsPair(*_phase_bases(require_array("offsets", offsets, "iuf", (4,))))


def _phase_bases(offsets) -> np.ndarray:
    """The (4, 3, 3) stack of phase bases (a1, a2, b1, b2) at those offsets."""
    rows = (phase_rows("A", offsets[:2]), phase_rows("B", offsets[2:4]))
    return np.concatenate(rows).reshape(4, DIM, DIM)


# The canonical bases (a1, a2, b1, b2), built once and read-only: the
# protocol's analyzers, the exact S3 that ``cli bell`` reports and the unitary
# family's base.
_CANONICAL_BASES = _phase_bases(CANONICAL_OFFSETS)
_CANONICAL_BASES.setflags(write=False)
CANONICAL_SETTINGS = SettingsPair(*_CANONICAL_BASES)


def as_mixture(state) -> MixedState:
    if isinstance(state, MixedState):
        return state
    return MixedState.pure(state)


# Signed coefficient per outcome cell, indexed [a - 1, k, b - 1, l] like the
# tables of ``SettingsPair.tables``, so that S3 is their dot product.  Cell
# (k, l) of pair (a, b) takes the sign listed for its difference class
# (k - l) mod 3: "A = B" is class 0, "A = B - 1" (coincidence k = 1) class 2
# and "A = B + 1" (k = 2) class 1.
_CLASS_SIGNS = np.array([[(1, 0, -1), (1, -1, 0)], [(-1, 0, 1), (1, 0, -1)]], dtype=float)
S3_COEFFICIENTS = _CLASS_SIGNS[:, :, (np.arange(DIM)[:, None] - np.arange(DIM)) % DIM] \
    .transpose(0, 2, 1, 3)
S3_COEFFICIENTS.setflags(write=False)


def s3_of(tables: np.ndarray) -> float:
    """S3 of (2, 3, 2, 3) outcome tables: their dot product with ``S3_COEFFICIENTS``."""
    return float(S3_COEFFICIENTS.reshape(-1) @ tables.reshape(-1))


def s3(state, settings: SettingsPair) -> float:
    """Exact S3 for a state (pure or mixed) at the given settings.

    The signed eight-term sum over the mod-3 coincidences, evaluated as the
    dot product of ``S3_COEFFICIENTS`` with the outcome tables; the "B - 1"
    terms take k = 1 and the "B + 1" term takes k = 2 (see module docstring).
    """
    return s3_of(settings.tables(state))


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


def _unitaries(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # exp(iH), H = sum_m theta[..., m] G_m, from one batched eigh H = V diag(w) V^dagger;
    # w and V are returned too, for the derivative of exp(iH)
    w, v = np.linalg.eigh((theta @ _GELL_MANN.reshape(8, -1)).reshape(*theta.shape[:-1], DIM, DIM))
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2), w, v


def _check_solver_inputs(tolerance: float, restarts: int, seed: int) -> None:
    require_real("tolerance", tolerance, 0, 1, "()")   # a relative tolerance is below 1
    require_integer("restarts", restarts, 1, MAX_RESTARTS)
    require_integer("seed", seed, 0)


# In the phase family, level j of a row at offset t is its offset-0 entry times
# exp(2 pi i j t / 3), so S3 is a trigonometric polynomial of the offsets
# x = (a1, a2, b1, b2): sum over the basis pairs (a, b) and the level differences
# p, q in {-2 .. 2} of F[a, b, p, q] exp(-2 pi i p x_a / 3) exp(-2 pi i q x_{2+b} / 3).
# _FREQUENCIES is the (100, 4) matrix of those exponents' integer factors.
_EYE = np.eye(DIM)
_DIFFERENCES = np.arange(1 - DIM, DIM)
_FREQUENCIES = (np.eye(4)[:2, None, None, None] * _DIFFERENCES[:, None, None]
                + np.eye(4)[None, 2:, None, None] * _DIFFERENCES[:, None]).reshape(-1, 4)
_SLOPES = (2.0 * np.pi / DIM) * _FREQUENCIES
_PHASES = (-2j * np.pi / DIM) * _DIFFERENCES
# S3_COEFFICIENTS as (A's row (a, k), B's row (b, l)), the unitary family's cells
_S3_CELLS = S3_COEFFICIENTS.reshape(2 * DIM, 2 * DIM)
# F = _PAIR_FOURIER R: with A's row k and B's row l at offset 0 carrying
# exp(2 pi i j k / 3) / sqrt(3) and exp(-2 pi i j l / 3) / sqrt(3) on level j, the
# probability of (k, l) is the sum over p, q of R[p, q] exp(-2 pi i (p k - q l) / 3) / 9,
# R the state's level-difference correlation (``_level_correlation``).  So _PAIR_FOURIER
# [a, b, p, q] = sum_{k, l} S3_COEFFICIENTS[a, k, b, l] exp(-2 pi i (p k - q l) / 3) / 9.
_FOURIER = np.exp(np.multiply.outer(_PHASES, np.arange(DIM)))   # [p, k]
_PAIR_FOURIER = np.einsum("akbl,pk,ql->abpq", S3_COEFFICIENTS, _FOURIER, _FOURIER.conj()) / DIM ** 2
# _LEVEL_BINS[(j, m, n, o), (p, q)] is 1 where the level differences j - n and
# m - o are _DIFFERENCES[p] and _DIFFERENCES[q]
_LEVEL_PAIRS = np.subtract.outer(np.arange(DIM), np.arange(DIM))[:, :, None] == _DIFFERENCES
_LEVEL_BINS = np.einsum("jnp,moq->jmnopq", _LEVEL_PAIRS, _LEVEL_PAIRS) \
    .reshape(DIM ** 4, len(_DIFFERENCES) ** 2).astype(float)


def _level_correlation(mixed: MixedState) -> np.ndarray:
    """(5, 5) correlation R[p, q] = sum_s w_s sum_{j, m} psi_s[j, m] conj(psi_s[j - p, m - q])
    of ``mixed`` over level differences p, q in {-2 .. 2}: its density matrix
    binned by ``_LEVEL_BINS``.  The white part adds nothing, since each
    setting pair's S3 coefficients sum to zero."""
    psis = mixed.psis.reshape(-1, DIM * DIM)
    rho = (mixed.weights * psis.T) @ psis.conj()
    return (rho.reshape(-1) @ _LEVEL_BINS).reshape(len(_DIFFERENCES), -1)


def _phase_coefficients(mixed: MixedState) -> np.ndarray:
    """(100,) coefficients of S3 of ``mixed`` in the phase family."""
    return (_PAIR_FOURIER * _level_correlation(mixed)).reshape(-1)


def _phase_weights(coefficients) -> np.ndarray:
    """Real weights (..., 200, 5) of the phase polynomial with coefficients
    F (..., 100) against ``_phase_terms``: with z = F e, Re z = Re F Re e -
    Im F Im e gives S3 (column 0) and Im z = Im F Re e + Re F Im e times
    the slopes (2 pi / 3) M, M ``_FREQUENCIES``, its gradient in the
    offsets (columns 1 to 4)."""
    re, im = coefficients.real[..., None], coefficients.imag[..., None]
    value = np.stack((re, -im), axis=-2)
    grad = np.stack((im, re), axis=-2) * _SLOPES[:, None, :]
    return np.concatenate((value, grad), axis=-1).reshape(*coefficients.shape[:-1], -1, 5)


def _phase_terms(offsets) -> np.ndarray:
    """The 100 exponentials e = exp(-2 pi i/3 M x) of the offsets x (..., 4)
    = (a1, a2, b1, b2), M ``_FREQUENCIES``, as (..., 200) reals (real and
    imaginary parts interleaved).  Each is the product of one A and one B
    factor exp(-2 pi i p x_j / 3), p = -2 .. 2: 20 exponentials per row."""
    e = np.exp(offsets[..., :, None] * _PHASES)
    terms = e[..., :2, None, :, None] * e[..., None, 2:, None, :]
    return terms.reshape(*offsets.shape[:-1], len(_FREQUENCIES)).view(float)


def _phase_polynomial(offsets, weights):
    """S3 and its gradient in the offsets (..., 4) = (a1, a2, b1, b2), per
    leading index, for ``weights`` (200, 5) from ``_phase_weights``: one
    product of ``_phase_terms`` with the weights."""
    out = _phase_terms(offsets) @ weights
    return out[..., 0], out[..., 1:]


def _unitary_s3_gradient(params, psis, weights):
    """S3 of ``psis`` mixed by ``weights`` at the bases exp(iH_q) base_q,
    q = a1, a2, b1, b2, with base ``_CANONICAL_BASES`` (exp(iH) base still
    ranges over all of U(3)), and its gradient in the 32 ``params`` (8 per
    H_q), for a stack of params (..., 32): values (...) and gradients (..., 32).

    One kernel call on the whole stack, with the identity appended to each
    side's rows (..., 1, 9, 3), yields the amplitudes amp (..., m, 6, 6) and
    the states contracted with the other side's rows, hence X = dS3/d(rows)
    as the sum over the states and the opposite side of D = 2 w C conj(amp)
    (C the cells' S3 coefficients, w the weights); dS3 = Re sum conj(d rows)
    X, with X (..., 4, 3, 3) per basis.  With H = V diag(w)
    V^dagger, the derivative of exp(iH) along G is V (L o V^dagger G V)
    V^dagger with the divided differences L_jk = (e^{iw_j} - e^{iw_k}) /
    (w_j - w_k), written i e^{i(w_j+w_k)/2} sinc((w_j-w_k)/2 pi) so that it
    stays exact where eigenvalues coincide (as at params = 0).  Hence
    dS3/dtheta_m = Re <G_m, V (conj(L) o V^dagger X base^dagger V) V^dagger>.
    """
    stack = np.shape(params)[:-1]
    u, w, v = _unitaries(np.reshape(params, (*stack, 4, 8)))
    # the 1 broadcasts over the states
    rows = (u @ _CANONICAL_BASES).reshape(*stack, 1, 4 * DIM, DIM)
    n = 2 * DIM
    eye = np.broadcast_to(_EYE, (*stack, 1, DIM, DIM))
    amps = born_amplitudes(np.concatenate((rows[..., :n, :], eye), axis=-2),
                           np.concatenate((rows[..., n:, :], eye), axis=-2), psis)
    cells, weighted = amps[..., :n, :n], np.asarray(weights)[:, None, None] * _S3_CELLS
    values = np.sum(weighted * (cells.real ** 2 + cells.imag ** 2), axis=(-3, -2, -1))
    dcells = 2.0 * weighted * cells.conj()
    x_a = np.sum(dcells @ amps[..., n:, :n].swapaxes(-1, -2), axis=-3)
    x_b = np.sum(dcells.swapaxes(-1, -2) @ amps[..., :n, n:], axis=-3)
    x = np.concatenate((x_a, x_b), axis=-2).reshape(*stack, 4, DIM, DIM)
    vh = v.conj().swapaxes(-1, -2)
    spread = w[..., :, None] - w[..., None, :]
    mean = (w[..., :, None] + w[..., None, :]) / 2.0
    divided = 1j * np.exp(1j * mean) * np.sinc(spread / (2.0 * np.pi))
    k = v @ (divided.conj() * (vh @ x @ _CANONICAL_BASES.conj().swapaxes(-1, -2) @ v)) @ vh
    grad = (k.reshape(*stack, 4, DIM * DIM) @ _GELL_MANN.reshape(8, DIM * DIM).conj().T).real
    return values, grad.reshape(*stack, 32)


_ARMIJO = 1e-4      # share of the first-order rise a step must achieve
_BACKTRACKS = 50    # step cuts before a line search gives up


def _ascend(objective, starts, tolerance: float, maxiter: int):
    """BFGS ascent from every row of ``starts`` (k, d) at once.

    ``objective`` maps an (m, d) stack of points to their values (m,) and
    gradients (m, d).  Each restart keeps its own inverse-Hessian estimate
    and its own Armijo backtracking, and one objective call per pass
    evaluates every live restart at x0 + t p: t = 1 for a fresh step, the
    next cut for a rejected one.  Each cut moves to the maximum of the
    quadratic through f0, the rise and the rejected value, kept within
    [0.1, 0.5] of the step; a line search that still finds no rise after
    ``_BACKTRACKS`` cuts has failed.  The first step, along the gradient, is
    at most 1 long, and the estimate starts from the identity scaled to the
    curvature that step found.  A restart leaves the stack when it stops.
    It has converged when max |gradient| <= ``tolerance`` or its value rose
    by at most ``tolerance`` * 1e-2 relative to max(|value|, 1), L-BFGS-B's
    gtol and ftol; it has not when ``maxiter`` (>= 1) iterations pass or its
    line search fails.  Returns the final points (k, d), values (k,) and
    per-restart converged flags (k,).
    """
    x = np.array(starts, dtype=float)
    f, g = objective(x)
    converged = np.abs(g).max(axis=1) <= tolerance
    live = np.flatnonzero(~converged)
    x0, f0, g0 = x[live], f[live], g[live]
    n, d = x0.shape
    h = np.eye(d) / np.maximum(np.linalg.norm(g0, axis=1), 1.0)[:, None, None]
    step, cuts, iterations = np.ones(n), np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    backtracking, unscaled = False, True   # some row is between cuts; has taken no step
    while len(live):
        # a rejected step leaves h and g0 as they were, so p and rise repeat
        p = (h @ g0[:, :, None])[:, :, 0]
        rise = (g0 * p).sum(axis=1)
        x1 = x0 + step[:, None] * p
        f1, g1 = objective(x1)
        moved = f1 >= f0 + _ARMIJO * step * rise
        iterations += moved
        # a step never lowers the value, so max(|f0|, |f1|) = max(f1, -f0)
        done = ((np.abs(g1).max(axis=1) <= tolerance)
                | (f1 - f0 <= tolerance * 1e-2 * np.maximum(np.maximum(f1, -f0), 1.0)))
        failed = False
        if backtracking or not moved.all():
            rejected = ~moved
            failed = rejected & (cuts == _BACKTRACKS)
            retry = rejected & ~failed
            t, r = step[retry], rise[retry]
            peak = 0.5 * r * t * t / np.maximum(f0[retry] + r * t - f1[retry], 1e-300)
            step[~retry] = 1.0
            step[retry] = np.fmin(np.fmax(peak, 0.1 * t), 0.5 * t)
            cuts = np.where(retry, cuts + 1, 0)
            backtracking = retry.any()
            # rejected rows stay where they were: s = y = 0 below leaves h as it is
            x1[rejected], f1[rejected], g1[rejected] = x0[rejected], f0[rejected], g0[rejected]
            done &= moved
        # inverse-Hessian update for minimizing -f: s = x1 - x0, y = g0 - g1;
        # rho = 0 leaves h as it is where the curvature y.s is not above
        # machine epsilon times y.y, L-BFGS-B's test for skipping an update
        s, y = x1 - x0, g0 - g1
        sy, yy = (s * y).sum(axis=1), (y * y).sum(axis=1)
        curved = sy > 2.2e-16 * yy
        if unscaled:   # after its first step a restart starts from the identity times y.s/y.y
            first = moved & (iterations == 1)
            scale = np.divide(sy, yy, out=np.ones_like(sy), where=curved)
            h = np.where(first[:, None, None], np.eye(d) * scale[:, None, None], h)
            unscaled = not iterations.all()
        hy = (h @ y[:, :, None])[:, :, 0]
        rho = np.divide(1.0, sy, out=np.zeros_like(sy), where=curved)
        a = rho[:, None] * s
        v = (rho * (y * hy).sum(axis=1) + 1.0)[:, None] * s - hy
        h += a[:, :, None] * v[:, None, :] - hy[:, :, None] * a[:, None, :]
        stop = done | failed | (iterations == maxiter)
        if stop.any():
            x[live[stop]], f[live[stop]] = x1[stop], f1[stop]
            converged[live[done]] = True
            keep = ~stop
            live, h, x1, f1, g1, step, cuts, iterations = (
                z[keep] for z in (live, h, x1, f1, g1, step, cuts, iterations))
        x0, f0, g0 = x1, f1, g1
    return x, f, converged


def _best(objective, starts, tolerance: float, maxiter: int):
    """The best final point of ``_ascend`` (the earliest restart within rounding,
    1e-10 relative, of the best value), and whether any restart converged."""
    x, f, converged = _ascend(objective, starts, tolerance, maxiter)
    top = f.max()
    return x[np.argmax(f >= top - 1e-10 * max(abs(top), 1.0))], bool(converged.any())


@dataclass(frozen=True, eq=False)
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
    the Fourier-phase family; "unitary" varies all four bases over the full
    local-unitary family (8 parameters each).  Both run every restart as one
    stack through ``_ascend`` (BFGS) on the exact gradient of unvalidated
    rows: the phase family evaluates S3 as a trigonometric polynomial of the
    offsets whose coefficients are ``_PAIR_FOURIER`` times the state's level
    correlation, with no Born-kernel call; the unitary family makes one
    kernel call per evaluation of the stack.  The
    reported value is the exact S3 re-evaluated at the returned settings.
    Deterministic for a fixed seed.  Values within 1e-10 (relative) of the best
    tie, and the earliest tied restart wins: the canonical start, if it is one.
    """
    _check_solver_inputs(tolerance, restarts, seed)
    if family not in ("phase", "unitary"):
        raise ValidationError(f"unknown settings family {family!r}")
    mixed = as_mixture(state)
    rng = np.random.default_rng(seed)

    if family == "phase":
        starts = np.vstack((CANONICAL_OFFSETS, rng.uniform(0.0, 3.0, size=(restarts - 1, 4))))
        weights = _phase_weights(_phase_coefficients(mixed))

        def objective(x):
            return _phase_polynomial(x, weights)
    else:
        starts = np.vstack((np.zeros(32), rng.normal(scale=0.6, size=(restarts - 1, 32))))

        def objective(x):
            return _unitary_s3_gradient(x, mixed.psis, mixed.weights)

    best_x, converged = _best(objective, starts, tolerance, maxiter=4000)
    settings = (canonical_settings(best_x) if family == "phase"
                else SettingsPair(*(_unitaries(best_x.reshape(4, 8))[0] @ _CANONICAL_BASES)))
    return OptimizeResult(
        settings=settings,
        s3=s3(mixed, settings),
        converged=converged,
        family=family,
        params=best_x,
    )


# The gamma family's polynomials per Schmidt pair (s, t) of |00>, |11>, |22>,
# weighted against ``_phase_terms``: (200, 9 * 5), built once.  Amplitude s
# times the conjugate of amplitude t is R's entry at p = q = s - t alone.
_SCHMIDT_WEIGHTS = _phase_weights(np.einsum("abpq,stp,stq->stabpq", _PAIR_FOURIER,
                                            _LEVEL_PAIRS, _LEVEL_PAIRS)
                                  .reshape(DIM * DIM, -1)) \
    .transpose(1, 0, 2).reshape(2 * len(_FREQUENCIES), -1)
_SCHMIDT_WEIGHTS.setflags(write=False)


def _gamma_s3_gradient(x):
    """S3 of c = (1, g, 1)/sqrt(2 + g^2) on |00>, |11>, |22> at phase offsets,
    for x = (g, a1, a2, b1, b2) (..., 5), and its gradient in x.

    The phase terms times ``_SCHMIDT_WEIGHTS`` give the value and offset
    gradient of each Schmidt pair's polynomial, and S3 is their sum
    weighted by c (x) c.  The real sum over frequencies of a pair
    (s, t)'s polynomial is symmetric in (s, t), so S3's derivative along
    dc = dc/dg is the same sum weighted by 2 dc (x) c.
    """
    g = np.abs(x[..., :1])
    norm = np.sqrt(2.0 + g * g)
    c = np.concatenate((np.ones_like(g), g, np.ones_like(g)), axis=-1) / norm
    dc = np.sign(x[..., :1]) * (np.array((0.0, 1.0, 0.0)) / norm - c * (g / norm ** 2))
    pairs = np.stack((c, 2.0 * dc), axis=-2)[..., :, None] * c[..., None, None, :]
    per_pair = (_phase_terms(x[..., 1:]) @ _SCHMIDT_WEIGHTS).reshape(*x.shape[:-1], DIM * DIM, 5)
    out = pairs.reshape(*x.shape[:-1], 2, DIM * DIM) @ per_pair
    return out[..., 0, 0], np.concatenate((out[..., 1, :1], out[..., 0, 1:]), axis=-1)


@dataclass(frozen=True, eq=False)
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
    the four phase offsets, by one stacked BFGS ascent (``_ascend``) over
    all restarts on the exact gradient of the phase-family polynomial,
    whose weights for this family (``_SCHMIDT_WEIGHTS``) are built at
    import: a solve makes no Born-kernel call.
    The optimum exceeds the maximal-entanglement value: a non-maximally
    entangled state violates the inequality more.
    """
    _check_solver_inputs(tolerance, restarts, seed)
    rng = np.random.default_rng(seed)
    starts = np.vstack((np.concatenate(([1.0], CANONICAL_OFFSETS)),
                        rng.uniform((0.2, 0.0, 0.0, 0.0, 0.0), (1.5, 3.0, 3.0, 3.0, 3.0),
                                    size=(restarts - 1, 5))))

    best, converged = _best(_gamma_s3_gradient, starts, tolerance, maxiter=6000)
    gamma = float(abs(best[0]))
    settings = canonical_settings(best[1:])
    value = s3(diagonal_state((1.0, gamma, 1.0)), settings)
    return GammaOptimum(gamma=gamma, s3=value, settings=settings, converged=converged)
