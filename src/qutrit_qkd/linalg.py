"""Exact complex linear algebra for qutrit pairs.

States are dense complex amplitude arrays: a single qutrit is a length-3
vector, a bipartite state a 3x3 array indexed ``[j_A, j_B]``.  Measurement
bases are 3x3 arrays whose *rows* are the outcome vectors.  Everything is
immutable by convention (arrays are returned with ``writeable=False``) and
every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12
ORTHO_TOL = 1e-10

DIM = 3


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class InvalidStateError(ValidationError):
    """State construction from degenerate inputs (e.g. all-zero coefficients)."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# The permutation exchanging labels 1 and 2: B's side of the source form
# a|00> + b|12> + c|21> is relabeled by it, and so are B's key outcomes.
SWAP_12 = _frozen(np.array([0, 2, 1], dtype=np.int8))


def normalize_coefficients(coeffs) -> tuple[np.ndarray, float]:
    """Return (unit coefficients, applied divisor) for three real amplitudes.

    Measured coefficient triples need not be an exact unit vector; the
    divisor is reported so callers can surface how much renormalization
    was applied.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (DIM,):
        raise ValidationError(f"expected 3 coefficients, got shape {c.shape}")
    if np.any(c < 0) or not np.all(np.isfinite(c)):
        raise ValidationError("coefficients must be finite and non-negative")
    norm = float(np.linalg.norm(c))
    if norm == 0.0:
        raise InvalidStateError("all-zero coefficients do not define a state")
    return c / norm, norm


def make_state(coeffs) -> np.ndarray:
    """Two-qutrit state a|00> + b|12> + c|21| from three real coefficients.

    The input is renormalized (see :func:`normalize_coefficients`); relative
    phases are taken to be zero.
    """
    c, _ = normalize_coefficients(coeffs)
    psi = np.zeros((DIM, DIM), dtype=complex)
    psi[0, 0] = c[0]
    psi[1, 2] = c[1]
    psi[2, 1] = c[2]
    return _frozen(psi)


def diagonal_state(coeffs) -> np.ndarray:
    """Schmidt-diagonal two-qutrit state a|00> + b|11| + c|22>, renormalized."""
    c, _ = normalize_coefficients(coeffs)
    return _frozen(np.diag(c).astype(complex))


def maximally_entangled_state() -> np.ndarray:
    """(|00> + |11> + |22>)/sqrt(3)."""
    return diagonal_state((1.0, 1.0, 1.0))


def relabel_b_swap12(state: np.ndarray) -> np.ndarray:
    """Exchange B-side labels 1 and 2 (a local unitary relabel).

    Maps the source form a|00> + b|12> + c|21> onto the Schmidt-diagonal
    form a|00> + b|11> + c|22> and is its own inverse.
    """
    return _frozen(np.asarray(state, dtype=complex)[:, SWAP_12])


def state_norm_sq(state: np.ndarray) -> float:
    return float(np.sum(np.abs(state) ** 2))


def require_normalized(state: np.ndarray, tol: float = NORM_TOL) -> None:
    if abs(state_norm_sq(state) - 1.0) > tol:
        raise ValidationError(
            f"state norm^2 = {state_norm_sq(state):.15f} deviates from 1 by more than {tol}"
        )


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> over the full bipartite space."""
    return complex(np.vdot(np.asarray(a), np.asarray(b)))


def computational_basis() -> np.ndarray:
    return _frozen(np.eye(DIM, dtype=complex))


_OUTCOMES = np.arange(DIM, dtype=float)[:, None]   # k down the rows; levels j = its transpose


def phase_rows(party: str, offsets) -> np.ndarray:
    """Fourier-phase analyzer bases at n offsets; rows k=0,1,2 of each, stacked (3n, 3).

    Vector k of party A carries amplitudes exp(2i*pi*j*(k+offset)/3)/sqrt(3)
    on |j>; party B uses -k in place of k.  Any offset yields an orthonormal
    basis; offsets differing by 3 give the same basis.
    """
    if party not in ("A", "B"):
        raise ValidationError(f"party must be 'A' or 'B', got {party!r}")
    sign_k = _OUTCOMES if party == "A" else -_OUTCOMES
    offsets = np.asarray(offsets, dtype=float)[:, None, None]
    return (np.exp(2j * np.pi * _OUTCOMES.T * (sign_k + offsets) / DIM)
            / np.sqrt(DIM)).reshape(-1, DIM)


def phase_basis(party: str, offset: float) -> np.ndarray:
    """The single Fourier-phase basis of :func:`phase_rows` at ``offset``."""
    return _frozen(phase_rows(party, [offset]))


def orthonormality_residual(basis: np.ndarray) -> float:
    """Max absolute deviation of B B^dagger from the identity."""
    b = np.asarray(basis)
    return float(np.max(np.abs(b @ b.conj().T - np.eye(DIM))))


def require_orthonormal(basis: np.ndarray, tol: float = ORTHO_TOL) -> None:
    r = orthonormality_residual(basis)
    if r > tol:
        raise ValidationError(f"basis orthonormality residual {r:.3e} exceeds {tol}")


@dataclass(frozen=True)
class MixedState:
    """Weighted ensemble of pure bipartite states plus an isotropic part.

    ``components`` holds (weight, state) pairs; ``white_noise_weight`` is the
    weight of the uniform (identity/9) admixture.  Weights must be
    non-negative and sum to 1 within ``NORM_TOL``.  For :func:`born_tables`
    the components are also kept as ``psis`` (m, 3, 3) and ``weights`` (m,).
    """

    components: tuple = field(default_factory=tuple)
    white_noise_weight: float = 0.0

    def __post_init__(self):
        comps = tuple((float(w), np.asarray(s, dtype=complex)) for w, s in self.components)
        object.__setattr__(self, "components", comps)
        total = self.white_noise_weight
        for w, s in comps:
            if w < -NORM_TOL:
                raise ValidationError(f"negative component weight {w}")
            if s.shape != (DIM, DIM):
                raise ValidationError(f"component state has shape {s.shape}, expected (3, 3)")
            require_normalized(s)
            total += w
        if self.white_noise_weight < -NORM_TOL:
            raise ValidationError("negative white-noise weight")
        if abs(total - 1.0) > NORM_TOL:
            raise ValidationError(f"mixture weights sum to {total!r}, expected 1")
        object.__setattr__(self, "psis", _frozen(
            np.array([s for _, s in comps], dtype=complex).reshape(-1, DIM, DIM)))
        object.__setattr__(self, "weights", _frozen(np.array([w for w, _ in comps])))

    @classmethod
    def pure(cls, state: np.ndarray) -> "MixedState":
        return cls(components=((1.0, state),))

    @classmethod
    def isotropic(cls, state: np.ndarray, visibility: float) -> "MixedState":
        """visibility * |state><state| + (1 - visibility) * uniform noise."""
        if not 0.0 <= visibility <= 1.0:
            raise ValidationError(f"visibility {visibility} outside [0, 1]")
        if visibility == 0.0:
            return cls(components=(), white_noise_weight=1.0)
        return cls(components=((visibility, state),), white_noise_weight=1.0 - visibility)

    @classmethod
    def white(cls) -> "MixedState":
        return cls(components=(), white_noise_weight=1.0)


def born_amplitudes(rows_a: np.ndarray, rows_b: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Amplitudes <a_r| <b_c| psi> for each state, shaped (m, len(rows_a), len(rows_b)).

    The product is real-linear in each argument, so passing the derivative
    of rows or of states gives the derivative of the amplitudes.  Nothing
    is validated.
    """
    return rows_a.conj() @ psis @ rows_b.conj().T


def born_tables(rows_a: np.ndarray, rows_b: np.ndarray, psis: np.ndarray,
                weights, white_weight: float) -> np.ndarray:
    """Born-rule tables T[i, k, j, l] = P(k, l | A in basis i, B in basis j).

    ``rows_a`` (3 n_a, 3) and ``rows_b`` (3 n_b, 3) stack the bases' outcome
    rows; the mixture is ``psis`` (m >= 0, 3, 3) with ``weights`` (m,) plus
    ``white_weight`` of uniform noise.  Nothing is validated: callers pass
    validated objects' arrays or the optimizers' own parameterizations.
    """
    amps = born_amplitudes(rows_a, rows_b, psis)
    cells = (np.abs(amps) ** 2).reshape(len(weights), len(rows_a) * len(rows_b))
    probs = weights @ cells + white_weight / 9.0
    return probs.reshape(len(rows_a) // DIM, DIM, len(rows_b) // DIM, DIM)
