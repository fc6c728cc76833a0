"""The boundary table: every public entry point that takes an array or a real,
tried with malformed values of that argument.  Each call must raise
ValidationError, or be an acceptance that README's "API notes" document
(``ACCEPTED``); numpy warnings are errors under pytest, so no value is cast
with only a warning."""

import os

import numpy as np
import pytest

from qutrit_qkd import bell, protocol, reconcile, transcript, tritcrypt, trits
from qutrit_qkd.linalg import (
    MixedState,
    ValidationError,
    diagonal_state,
    normalize_coefficients,
    phase_rows,
    require_orthonormal,
)

STATE = diagonal_state((1.0, 1.0, 1.0))
EYE = np.eye(3)

# (entry point, argument) -> a call with ``x`` in that argument
ARRAYS = {
    ("linalg.normalize_coefficients", "coeffs"): normalize_coefficients,
    ("linalg.diagonal_state", "coeffs"): diagonal_state,
    ("linalg.phase_rows", "offsets"): lambda x: phase_rows("A", x),
    ("linalg.require_orthonormal", "basis"): require_orthonormal,
    ("linalg.MixedState", "state"): lambda x: MixedState(components=((1.0, x),)),
    ("linalg.MixedState.pure", "state"): MixedState.pure,
    ("linalg.MixedState.isotropic", "state"): lambda x: MixedState.isotropic(x, 0.0),
    ("bell.SettingsPair", "a1"): lambda x: bell.SettingsPair(x, EYE, EYE, EYE),
    ("bell.canonical_settings", "offsets"): bell.canonical_settings,
    ("bell.s3", "state"): lambda x: bell.s3(x, bell.CANONICAL_SETTINGS),
    ("bell.optimize_s3", "state"): lambda x: bell.optimize_s3(x, restarts=1),
    ("protocol.SourceConfig", "coefficients"): lambda x: protocol.SourceConfig(coefficients=x),
    ("protocol.PartyConfig", "setting_probabilities"): protocol.PartyConfig,
    ("protocol.EveConfig", "basis"): lambda x: protocol.EveConfig(enabled=True, basis=x),
    ("protocol.EveConfig", "basis, disabled"): lambda x: protocol.EveConfig(basis=x),
    ("protocol.sift", "code"): protocol.sift,
    ("protocol.analyze", "chunk"): lambda x: protocol.analyze([x]),
    ("protocol.estimate_s3", "counts"): protocol.estimate_s3,
    ("protocol.qter", "counts"): protocol.qter,
    ("transcript.transcribe", "chunk"): lambda x: list(transcript.transcribe(os.devnull, [x])),
    ("trits.as_trits", "values"): trits.as_trits,
    ("trits.format_trits", "trits"): trits.format_trits,
    ("reconcile.parity_sift", "key_a"): lambda x: reconcile.parity_sift(x, x),
    ("tritcrypt.encrypt", "code"): lambda x: tritcrypt.encrypt(x, x),
    ("tritcrypt.decrypt", "cipher"): lambda x: tritcrypt.decrypt(x, x),
    ("tritcrypt.decode", "code"): tritcrypt.decode,
}

REALS = {
    ("linalg.MixedState", "component weight"):
        lambda x: MixedState(components=((x, STATE),)),
    ("linalg.MixedState", "white_noise_weight"):
        lambda x: MixedState(white_noise_weight=x),
    ("linalg.MixedState.isotropic", "visibility"): lambda x: MixedState.isotropic(STATE, x),
    ("protocol.SourceConfig", "visibility"): lambda x: protocol.SourceConfig(visibility=x),
    ("protocol.SourceConfig", "background_fraction"):
        lambda x: protocol.SourceConfig(background_fraction=x),
    ("protocol.SourceConfig", "detection_efficiency"):
        lambda x: protocol.SourceConfig(detection_efficiency=x),
    ("protocol.SourceConfig", "key_crosstalk"): lambda x: protocol.SourceConfig(key_crosstalk=x),
    ("protocol.calibrate_noise", "target_s3"): lambda x: protocol.calibrate_noise(target_s3=x),
    ("protocol.calibrate_noise", "target_qter"): lambda x: protocol.calibrate_noise(target_qter=x),
    ("bell.optimize_s3", "tolerance"): lambda x: bell.optimize_s3(STATE, tolerance=x, restarts=1),
    ("bell.optimize_gamma_family", "tolerance"):
        lambda x: bell.optimize_gamma_family(tolerance=x, restarts=1),
}

ARRAY_INPUTS = {
    "2-D": np.ones((2, 2), dtype=np.uint8),
    "0-d": np.uint8(1),
    "empty": [],
    "str": "101",
    "str array": np.array(["1", "0", "1"]),
    "object": np.array([1, 0, 1], dtype=object),
    "complex": np.array([1j, 1, 1]),
    "NaN": np.array([np.nan, 1.0, 1.0]),
    "inf": np.array([np.inf, 1.0, 1.0]),
    "None": None,
    "bool": np.array([True, False, True]),
    "ragged": [[1, 0], 1, 1],
}

REAL_INPUTS = {
    "2-D": np.full((2, 2), 0.5),
    "0-d": np.array(0.5),
    "empty": [],
    "str": "0.5",
    "object": np.array(0.5, dtype=object),
    "complex": 0.5 + 0j,
    "NaN": float("nan"),
    "inf": float("inf"),
    "None": None,
    "bool": True,
}

# The acceptances README documents: a digit string and an empty list are trit
# strings (key files can be empty), an empty offset list gives no rows, and an
# eavesdropper with no basis measures in the computational basis.
_TRIT_ENTRIES = ("trits.as_trits", "trits.format_trits", "reconcile.parity_sift",
                 "tritcrypt.encrypt", "tritcrypt.decrypt", "tritcrypt.decode")
ACCEPTED = ({(entry, case) for entry in _TRIT_ENTRIES for case in ("empty", "str")}
            | {("linalg.phase_rows", "empty"), ("protocol.EveConfig", "None")})


def entry_points():
    """The names of every entry point the table tries."""
    return {entry for entry, _ in ARRAYS} | {entry for entry, _ in REALS}


def _outcome(call, value) -> str:
    try:
        call(value)
    except Exception as exc:            # a warning too: pytest raises warnings as errors
        return type(exc).__name__
    return "accepted"


@pytest.mark.parametrize("entry, call, inputs", [
    pytest.param(entry, call, inputs, id=f"{entry}({argument})")
    for table, inputs in ((ARRAYS, ARRAY_INPUTS), (REALS, REAL_INPUTS))
    for (entry, argument), call in table.items()])
def test_malformed_argument(entry, call, inputs):
    got = {case: _outcome(call, value) for case, value in inputs.items()}
    assert got == {case: "accepted" if (entry, case) in ACCEPTED else "ValidationError"
                   for case in inputs}


@pytest.mark.parametrize("value, message", [
    (np.array([1j, 1, 1]), "coefficients must be reals, got dtype complex128"),
    (np.array(["1", "1", "1"]), "coefficients must be reals, got dtype <U1"),
    ([[1, 0], 1, 1], "coefficients must be a rectangular array"),
    ((1.0, 1.0), "coefficients must have shape (3,), got shape (2,)"),
    ((1.0, np.nan, 1.0), "coefficients must be finite, got nan"),
    ((1.0, -1.0, 1.0), "coefficients must be non-negative, got [ 1. -1.  1.]"),
])
def test_array_messages(value, message):
    # one template per kind of fault, each naming the argument
    with pytest.raises(ValidationError) as info:
        diagonal_state(value)
    assert str(info.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: protocol.SourceConfig(visibility=True),
     "visibility must be a real in [0, 1], got True"),
    (lambda: protocol.SourceConfig(visibility="0.5"),
     "visibility must be a real in [0, 1], got '0.5'"),
    (lambda: protocol.SourceConfig(detection_efficiency=0.0),
     "detection_efficiency must be a real in (0, 1], got 0.0"),
    (lambda: MixedState(components=((float("nan"), STATE),)),
     "component weight must be a real in [-1e-12, 1.000000000001], got nan"),
    (lambda: bell.optimize_s3(STATE, tolerance=1.0),
     "tolerance must be a real in (0, 1), got 1.0"),
    (lambda: protocol.sift(np.array([[3, 80]], dtype=np.uint8)),
     "round codes must have shape (n,), got shape (1, 2)"),
    (lambda: protocol.estimate_s3(np.ones((3, 3))),
     "counts must have shape (..., 3, 3, 3, 3), got shape (3, 3)"),
    (lambda: protocol.calibrate_noise(target_s3="x"),
     "target_s3 must be a real in [-inf, inf], got 'x'"),
    # an infinite target is a real: it still gets the message an unreachable one gets
    (lambda: protocol.calibrate_noise(target_qter=float("-inf")),
     "target QTER -inf unreachable at visibility 0.9363"),
], ids=["visibility-bool", "visibility-str", "detection-0", "weight-nan", "tolerance-1",
         "codes-2d", "counts-2d", "target-s3-str", "target-qter-inf"])
def test_real_and_shape_messages(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


def test_numpy_scalars_and_empty_tuples_pass():
    # numpy scalars are reals and weights, any integer dtype holds round codes
    assert protocol.SourceConfig(visibility=np.float32(0.5)).visibility == 0.5
    assert MixedState(components=((np.int64(1), STATE),)).weights.tolist() == [1.0]
    assert protocol.sift(np.array([80, 3], dtype=np.int16)).n_key == 1
    assert trits.as_trits(()).dtype == np.int8 and trits.as_trits(()).size == 0
