"""Exact complex linear algebra for qutrit pairs.

States are dense complex amplitude arrays: a single qutrit is a length-3
vector, a bipartite state a 3x3 array indexed ``[j_A, j_B]``;
``diagonal_state`` builds one in the Schmidt-diagonal form (the lab's labels,
and the relabel to them, belong to ``protocol``).  Measurement bases are 3x3
arrays whose *rows* are the outcome vectors.  Everything is
immutable by convention (arrays are returned with ``writeable=False``) and
every operation is a pure function.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12
ORTHO_TOL = 1e-10

DIM = 3


class ValidationError(ValueError):
    """An input violates a documented precondition."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def normalize_coefficients(coeffs) -> tuple[np.ndarray, float]:
    """Return (unit coefficients, applied divisor) for three real amplitudes.

    Measured coefficient triples need not be an exact unit vector; the
    divisor is reported so callers can surface how much renormalization
    was applied.
    """
    c = require_array("coefficients", coeffs, "iuf", (DIM,)).astype(float)
    if np.any(c < 0):
        raise ValidationError(f"coefficients must be non-negative, got {c}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(c))
    if not 0.0 < norm < np.inf and c.max() > 0.0:
        # the squared norm over- or underflows: divide by the largest entry first
        unit, divisor = normalize_coefficients(c / c.max())
        return unit, float(c.max()) * divisor
    if norm == 0.0:
        raise ValidationError("all-zero coefficients do not define a state")
    return c / norm, norm


def diagonal_state(coeffs) -> np.ndarray:
    """Schmidt-diagonal two-qutrit state a|00> + b|11| + c|22>, renormalized."""
    c, _ = normalize_coefficients(coeffs)
    return _frozen(np.diag(c).astype(complex))


def require_integer(name: str, value, least: int, most: float = np.inf) -> int:
    """``value`` as an int if it is an integer from ``least`` to ``most``
    (numpy's too, not a bool); else ``ValidationError`` naming ``name``."""
    if (isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__")
            or not least <= operator.index(value) <= most):
        wording = (f"an integer from {least} to {most}" if most < np.inf
                   else "a positive integer" if least else "a non-negative integer")
        raise ValidationError(f"{name} must be {wording}, got {value!r}")
    return operator.index(value)


def require_real(name: str, value, least: float, most: float, ends: str = "[]") -> float:
    """``value`` as a float if it is a real (numpy's too; not a bool, not NaN) in
    the interval from ``least`` to ``most`` with ``ends`` "[]", "(]", "[)" or "()";
    else ``ValidationError`` naming ``name``."""
    if (isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
            and (least < value if ends[0] == "(" else least <= value)
            and (value < most if ends[1] == ")" else value <= most)):
        return float(value)
    raise ValidationError(f"{name} must be a real in {ends[0]}{least}, {most}{ends[1]}, "
                          f"got {value!r}")


_KIND_WORDS = {"iu": "integers", "iuf": "reals", "biuf": "reals or bools", "biufc": "numeric"}


def require_array(name: str, value, kinds: str, shape: tuple) -> np.ndarray:
    """``np.asarray(value)``, not cast, if its dtype kind is in ``kinds`` (a key of
    ``_KIND_WORDS``), its shape is ``shape``, whose first entry may be ``None`` (any
    length) or ``...`` (any leading axes), and its values are finite; else ``ValidationError``."""
    try:
        a = np.asarray(value)
    except ValueError:                  # a ragged nesting of sequences
        raise ValidationError(f"{name} must be a rectangular array") from None
    if a.dtype.kind not in kinds:
        raise ValidationError(f"{name} must be {_KIND_WORDS[kinds]}, got dtype {a.dtype}")
    lead = shape[0]
    if not (a.shape == shape
            or lead is None and a.ndim == len(shape) and a.shape[1:] == shape[1:]
            or lead is ... and a.shape[a.ndim - len(shape) + 1:] == shape[1:]):
        spec = str(shape).replace("None", "n").replace("Ellipsis", "...")
        raise ValidationError(f"{name} must have shape {spec}, got shape {a.shape}")
    # count_nonzero, not all(): a fraction of the overhead on small arrays
    if a.dtype.kind in "fc" and np.count_nonzero(np.isfinite(a)) < a.size:
        raise ValidationError(f"{name} must be finite, got {a[~np.isfinite(a)][0]}")
    return a


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
    offsets = require_array("offsets", offsets, "iuf", (None,))[:, None, None]
    return (np.exp(2j * np.pi * _OUTCOMES.T * (sign_k + offsets) / DIM)
            / np.sqrt(DIM)).reshape(-1, DIM)


def orthonormality_residual(basis: np.ndarray) -> float:
    """Max absolute deviation of B B^dagger from the identity."""
    b = np.asarray(basis)
    return float(np.max(np.abs(b @ b.conj().T - np.eye(DIM))))


def require_orthonormal(basis: np.ndarray) -> None:
    r = orthonormality_residual(require_array("basis", basis, "biufc", (DIM, DIM)))
    if not (r <= ORTHO_TOL):
        raise ValidationError(f"basis orthonormality residual {r:.3e} exceeds {ORTHO_TOL}")


@dataclass(frozen=True, eq=False)
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
        weights = [require_real("component weight", w, -NORM_TOL, 1 + NORM_TOL)
                   for w, _ in self.components]
        states = [s for _, s in self.components] or np.zeros((0, DIM, DIM))
        psis = np.asarray(require_array("component states", states, "biufc", (None, DIM, DIM)),
                          dtype=complex)
        total = sum(weights, require_real("white_noise_weight", self.white_noise_weight,
                                          -NORM_TOL, 1 + NORM_TOL))
        _require_unit(psis)
        if not (abs(total - 1.0) <= NORM_TOL):
            raise ValidationError(f"mixture weights sum to {total!r}, expected 1")
        self._store(psis, np.array(weights))

    def _store(self, psis: np.ndarray, weights: np.ndarray) -> None:
        object.__setattr__(self, "components", tuple(zip(weights.tolist(), psis)))
        object.__setattr__(self, "psis", _frozen(psis))
        object.__setattr__(self, "weights", _frozen(weights))

    @classmethod
    def _unchecked(cls, psis: np.ndarray, weights: np.ndarray,
                   white_noise_weight: float) -> "MixedState":
        """The mixture of the complex states ``psis`` (m, 3, 3) at the float ``weights``
        (m,), arrays it takes over and freezes, plus ``white_noise_weight``, checking
        nothing: for states the library derives from input it has already checked."""
        self = object.__new__(cls)
        object.__setattr__(self, "white_noise_weight", white_noise_weight)
        self._store(psis, weights)
        return self

    @classmethod
    def pure(cls, state: np.ndarray) -> "MixedState":
        return cls._unchecked(_unit_state(state), np.ones(1), 0.0)

    @classmethod
    def isotropic(cls, state: np.ndarray, visibility: float) -> "MixedState":
        """visibility * |state><state| + (1 - visibility) * uniform noise.  ``state``
        is checked at every visibility, though at 0 it has no weight."""
        visibility = require_real("visibility", visibility, 0, 1)
        psi = _unit_state(state)
        if visibility == 0.0:
            return cls._unchecked(psi[:0], np.zeros(0), 1.0)
        return cls._unchecked(psi, np.array([visibility]), 1.0 - visibility)


def _require_unit(psis: np.ndarray) -> None:
    for s in psis:
        if not (abs(np.vdot(s, s).real - 1.0) <= NORM_TOL):
            raise ValidationError(f"state norm^2 = {np.vdot(s, s).real:.15f} deviates "
                                  f"from 1 by more than {NORM_TOL}")


def _unit_state(state) -> np.ndarray:
    """``state`` checked as a ``MixedState`` checks its component states, as a
    complex (1, 3, 3) stack."""
    psi = np.asarray(require_array("component states", [state], "biufc", (None, DIM, DIM)),
                     dtype=complex)
    _require_unit(psi)
    return psi


def born_amplitudes(rows_a: np.ndarray, rows_b: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Amplitudes <a_r| <b_c| psi> for each state, shaped (m, len(rows_a), len(rows_b)).

    Rows (r, 3) serve every state (m, 3, 3).  Row stacks (..., r, 3)
    broadcast against the states as matrix stacks do: rows (k, 1, r, 3)
    and (k, 1, c, 3) give amplitudes (k, m, r, c).  The product is
    real-linear in each argument, so passing the derivative of rows or of
    states gives the derivative of the amplitudes.  Nothing is validated.
    """
    return rows_a.conj() @ psis @ rows_b.conj().swapaxes(-1, -2)


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
