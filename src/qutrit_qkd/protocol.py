"""Two-party entanglement-based qutrit key distribution, simulated end to end.

The source emits pairs in the form a|00> + b|12> + c|21>.  Each party
switches between three analyzer settings: 1 and 2 probe the Bell
inequality, 3 is the key setting with perfect correlations.  B's Bell
analyzers fold in the 1<->2 relabel so that the sampled statistics match
the canonical phase-basis tables on the Schmidt-diagonal form of the
source state.

Sampling is Monte-Carlo over exact Born-rule outcome tables; an enabled
intercept-resend eavesdropper is applied as an exact post-measurement
ensemble before sampling, never as an outcome heuristic.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import bell
from .linalg import (
    DIM,
    SWAP_12,
    MixedState,
    ValidationError,
    born_tables,
    computational_basis,
    make_state,
    phase_rows,
    require_orthonormal,
)

# Tolerable noise fraction for secure three-level key distribution
# (an imported security threshold, not derived in this package).
NOISE_BOUND_QUTRIT = 0.225

# Reference experiment statistics used by the calibrated noise profile.
REFERENCE_COEFFICIENTS = (0.642, 0.546, 0.539)
REFERENCE_S3 = 2.688
REFERENCE_QTER = 14.0 / 150.0


class InsufficientDataError(RuntimeError):
    """Not enough sifted data to perform the requested estimate."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceConfig:
    """Pair source and channel noise model.

    ``visibility`` mixes the pure source state with isotropic noise,
    ``background_fraction`` replaces a round's outcome pair with a uniform
    pair (accidental coincidences), and ``key_crosstalk`` does the same for
    key-setting rounds only, modelling unwanted-channel crosstalk in the
    key analyzers independently of the Bell channels.
    """

    coefficients: tuple = (1.0, 1.0, 1.0)
    visibility: float = 1.0
    background_fraction: float = 0.0
    detection_efficiency: float = 1.0
    key_crosstalk: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValidationError(f"visibility {self.visibility} outside [0, 1]")
        if not 0.0 <= self.background_fraction <= 1.0:
            raise ValidationError(
                f"background_fraction {self.background_fraction} outside [0, 1]")
        if not 0.0 < self.detection_efficiency <= 1.0:
            raise ValidationError(
                f"detection_efficiency {self.detection_efficiency} outside (0, 1]")
        if not 0.0 <= self.key_crosstalk <= 1.0:
            raise ValidationError(f"key_crosstalk {self.key_crosstalk} outside [0, 1]")
        make_state(self.coefficients)  # validates the coefficient triple


@dataclass(frozen=True)
class PartyConfig:
    """Setting choice distribution and the three analyzer bases (1, 2, key)."""

    setting_probabilities: tuple = (1 / 3, 1 / 3, 1 / 3)
    bases: tuple = ()

    def __post_init__(self):
        p = np.asarray(self.setting_probabilities, dtype=float)
        if p.shape != (3,) or not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-12):
            raise ValidationError(
                f"setting probabilities must be 3 non-negative reals summing to 1, got {p}")
        if len(self.bases) != 3:
            raise ValidationError("a party needs exactly 3 measurement bases")
        for basis in self.bases:
            require_orthonormal(basis)

    def basis(self, setting: int) -> np.ndarray:
        return self.bases[setting - 1]


@dataclass(frozen=True)
class EveConfig:
    """Intercept-resend adversary on one arm with a fixed measurement basis."""

    enabled: bool = False
    arm: str = "B"
    basis: np.ndarray | None = None

    def __post_init__(self):
        if self.arm not in ("A", "B"):
            raise ValidationError(f"eve arm must be 'A' or 'B', got {self.arm!r}")
        if self.enabled:
            basis = self.basis if self.basis is not None else computational_basis()
            require_orthonormal(basis)
            object.__setattr__(self, "basis", np.asarray(basis, dtype=complex))


def default_parties(bias_a=None, bias_b=None) -> tuple[PartyConfig, PartyConfig]:
    """Standard analyzer configuration for both observers.

    Bell settings use the canonical phase offsets; B's Bell bases absorb the
    1<->2 relabel of the source form, and both key settings are the
    computational basis (B's key trit is relabeled after measurement).
    """
    offsets = bell.CANONICAL_OFFSETS
    rows_a, rows_b = phase_rows("A", offsets[:2]), phase_rows("B", offsets[2:])[:, SWAP_12]
    alice = PartyConfig(
        setting_probabilities=tuple(bias_a) if bias_a is not None else (1 / 3, 1 / 3, 1 / 3),
        bases=(rows_a[:DIM], rows_a[DIM:], computational_basis()),
    )
    bob = PartyConfig(
        setting_probabilities=tuple(bias_b) if bias_b is not None else (1 / 3, 1 / 3, 1 / 3),
        bases=(rows_b[:DIM], rows_b[DIM:], computational_basis()),
    )
    return alice, bob


# ---------------------------------------------------------------------------
# Exact state-level machinery
# ---------------------------------------------------------------------------

def source_mixture(source: SourceConfig) -> MixedState:
    """The emitted two-qutrit ensemble before any eavesdropping."""
    return MixedState.isotropic(make_state(source.coefficients), source.visibility)


def post_eve_mixture(mixed: MixedState, eve: EveConfig) -> MixedState:
    """Exact ensemble after an intercept-resend measurement on one arm.

    Each pure component collapses into at most three product states, one
    per eavesdropper outcome; the isotropic part is invariant.  The result
    is separable on the intercepted cut.
    """
    if not eve.enabled:
        return mixed
    basis = eve.basis
    components = []
    for w, psi in mixed.components:
        for m in range(DIM):
            if eve.arm == "B":
                arm_vec = psi @ basis[m].conj()          # A-side conditional amplitude
            else:
                arm_vec = basis[m].conj() @ psi          # B-side conditional amplitude
            p = float(np.sum(np.abs(arm_vec) ** 2))
            if p <= 1e-15:
                continue
            unit = arm_vec / np.sqrt(p)
            if eve.arm == "B":
                post = np.outer(unit, basis[m])
            else:
                post = np.outer(basis[m], unit)
            components.append((w * p, post))
    return MixedState(components=tuple(components),
                      white_noise_weight=mixed.white_noise_weight)


def _setting_tables(source: SourceConfig, eve: EveConfig,
                    a: PartyConfig, b: PartyConfig) -> np.ndarray:
    """Exact outcome tables of all setting pairs, with outcome-level noise folded in.

    Indexed ``[setting_a - 1, outcome_a, setting_b - 1, outcome_b]``.
    Background replaces any round's outcomes with a uniform pair; key
    crosstalk does the same on the (3, 3) pair only.  Both act at the
    probability level, so folding them into the tables is exact.  All nine
    pairs come from one call of the Born kernel.
    """
    mixed = post_eve_mixture(source_mixture(source), eve)
    t = born_tables(np.concatenate(a.bases), np.concatenate(b.bases), mixed.psis,
                    mixed.weights, mixed.white_noise_weight)
    uniform = 1.0 / 9.0
    t = (1.0 - source.background_fraction) * t + source.background_fraction * uniform
    if source.key_crosstalk > 0.0:
        t[2, :, 2, :] = (1.0 - source.key_crosstalk) * t[2, :, 2, :] \
            + source.key_crosstalk * uniform
    return t


def exact_session_s3(source: SourceConfig, eve: EveConfig = EveConfig(),
                     parties: tuple | None = None) -> float:
    """Exact S3 implied by a session configuration (no sampling)."""
    a, b = parties if parties is not None else default_parties()
    t = _setting_tables(source, eve, a, b)
    return sum(float((coeff * t[sa - 1, :, sb - 1, :]).sum())
               for (sa, sb), coeff in bell.s3_coefficients().items())


def calibrate_noise(coefficients=REFERENCE_COEFFICIENTS,
                    target_s3: float = REFERENCE_S3,
                    target_qter: float = REFERENCE_QTER) -> tuple[float, float]:
    """Solve for (visibility, key_crosstalk) hitting target S3 and QTER.

    S3 scales linearly with visibility at fixed settings; the key error
    rate is 2/3 of the total uniform-noise weight seen by key rounds.
    Raises if the targets are outside the reachable region.
    """
    from .linalg import diagonal_state

    s3_pure = bell.s3(diagonal_state(coefficients), bell.canonical_settings()).s3
    visibility = target_s3 / s3_pure
    if not 0.0 < visibility <= 1.0:
        raise ValidationError(
            f"target S3 {target_s3} unreachable: pure-state value is {s3_pure:.4f}")
    correlated = 1.0 - 1.5 * target_qter       # required (1 - crosstalk) * visibility
    key_crosstalk = 1.0 - correlated / visibility
    if not 0.0 <= key_crosstalk <= 1.0:
        raise ValidationError(
            f"target QTER {target_qter} unreachable at visibility {visibility:.4f}")
    return visibility, key_crosstalk


def reference_source() -> SourceConfig:
    """Source calibrated to the reference experiment's S3 and QTER.

    Detection is 1/9: each probabilistic mode analyzer succeeds with
    probability 1/3, squared for a coincidence.
    """
    visibility, key_crosstalk = calibrate_noise()
    return SourceConfig(
        coefficients=REFERENCE_COEFFICIENTS,
        visibility=visibility,
        key_crosstalk=key_crosstalk,
        detection_efficiency=1.0 / 9.0,
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@dataclass
class Rounds:
    """Column-oriented store of protocol rounds (-1 marks absent outcomes)."""

    round_id: np.ndarray
    setting_a: np.ndarray
    outcome_a: np.ndarray
    setting_b: np.ndarray
    outcome_b: np.ndarray
    detected: np.ndarray

    def __len__(self) -> int:
        return len(self.round_id)

    def subset(self, mask: np.ndarray) -> "Rounds":
        return Rounds(*(col[mask] for col in self._columns()))

    def _columns(self):
        return (self.round_id, self.setting_a, self.outcome_a,
                self.setting_b, self.outcome_b, self.detected)


_ROUND_DTYPES = (np.int64, np.int8, np.int8, np.int8, np.int8, bool)


def _concat(chunks) -> Rounds:
    """One ``Rounds`` holding the chunks' rounds in order."""
    empty = [np.zeros(0, dtype=dt) for dt in _ROUND_DTYPES]
    columns = zip(empty, *(chunk._columns() for chunk in chunks))
    return Rounds(*(np.concatenate(column) for column in columns))


# Rounds per sampled chunk.  A session is drawn from one PCG64 stream column
# by column (settings A, settings B, detection, outcome uniforms), n draws
# each, so chunk [lo, lo + m) of column j is draws j*n + lo ... of the stream.
_SESSION_CHUNK_ROWS = 1 << 16
# outcome-pair index 3*outcome_a + outcome_b, or 9 for an undetected round
_OUTCOME_A = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, -1], dtype=np.int8)
_OUTCOME_B = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, -1], dtype=np.int8)


def _setting_cdf(party: PartyConfig) -> np.ndarray:
    p = np.asarray(party.setting_probabilities, dtype=float)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _settings(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Settings 1..3 from uniforms, as ``Generator.choice`` maps them."""
    s = np.ones(len(u), dtype=np.int8)
    s += u >= cdf[0]
    s += u >= cdf[1]
    return s


def iter_session(n_rounds: int, source: SourceConfig, eve: EveConfig,
                 a: PartyConfig, b: PartyConfig, seed: int) -> Iterator[Rounds]:
    """A seeded measurement session as ``Rounds`` chunks of at most 65536 rounds.

    Settings and detection are drawn per round, outcomes from the exact
    per-setting-pair tables.  Chunking does not change the draws: identical
    seeds and configurations reproduce the session bit for bit.
    """
    if n_rounds <= 0:
        raise ValidationError(f"n_rounds must be positive, got {n_rounds}")
    t = _setting_tables(source, eve, a, b)
    cdf = np.cumsum(t.transpose(0, 2, 1, 3).reshape(9, 9), axis=1)
    # row k holds every setting pair's k-th cumulative outcome probability
    thresholds = np.ascontiguousarray(cdf[:, :8].T)
    return _sample_chunks(n_rounds, np.random.PCG64(seed), thresholds,
                          _setting_cdf(a), _setting_cdf(b), source.detection_efficiency)


def _sample_chunks(n: int, bitgen, thresholds, cdf_a, cdf_b, detection):
    rng = np.random.Generator(bitgen)
    seeded = bitgen.state
    for lo in range(0, n, _SESSION_CHUNK_ROWS):
        m = min(_SESSION_CHUNK_ROWS, n - lo)

        def draw(column):
            bitgen.state = seeded
            bitgen.advance(column * n + lo)
            return rng.random(m)

        sa = _settings(draw(0), cdf_a)
        sb = _settings(draw(1), cdf_b)
        detected = draw(2) < detection
        u = draw(3)
        # outcome index = number of cumulative probabilities <= u
        pair = 3 * sa.astype(np.intp) + sb - 4
        idx = np.zeros(m, dtype=np.intp)
        for row in thresholds:
            idx += row.take(pair) <= u
        idx[~detected] = 9
        yield Rounds(round_id=np.arange(lo, lo + m, dtype=np.int64),
                     setting_a=sa, outcome_a=_OUTCOME_A.take(idx),
                     setting_b=sb, outcome_b=_OUTCOME_B.take(idx),
                     detected=detected)


def run_session(n_rounds: int, source: SourceConfig, eve: EveConfig,
                a: PartyConfig, b: PartyConfig, seed: int) -> Rounds:
    """A whole seeded session in memory: the chunks of ``iter_session`` joined."""
    return _concat(iter_session(n_rounds, source, eve, a, b, seed))


# ---------------------------------------------------------------------------
# Sifting, estimation, verdict
# ---------------------------------------------------------------------------

class Party:
    """One observer's settings and detection record, as sifting sees them."""

    def __init__(self, settings: np.ndarray, detected: np.ndarray):
        self.settings = settings
        self.detected = detected

    def sift_masks(self, other_settings: np.ndarray):
        """(key, Bell) masks: detected rounds with both parties on setting 3,
        and with both on setting 1 or 2.  Detected rounds in neither are
        discarded.  This is the only statement of the sifting rule."""
        det = self.detected
        key = det & (self.settings == 3) & (other_settings == 3)
        bell_mask = det & (self.settings <= 2) & (other_settings <= 2)
        return key, bell_mask


@dataclass(frozen=True)
class Sifted:
    """A session sifted in one pass.

    ``counts[sa - 1, oa, sb - 1, ob]`` counts the detected rounds by setting
    pair and outcome pair.  ``key_a`` and ``key_b`` are the key-round
    outcomes in round order, B's with outcomes 1 and 2 exchanged.
    """

    key_mask: np.ndarray
    bell_mask: np.ndarray
    counts: np.ndarray
    key_a: np.ndarray
    key_b: np.ndarray

    @property
    def n_detected(self) -> int:
        return int(self.counts.sum())

    @property
    def n_key(self) -> int:
        return len(self.key_a)

    @property
    def n_bell(self) -> int:
        return int(np.count_nonzero(self.bell_mask))

    @property
    def n_discarded(self) -> int:
        return self.n_detected - self.n_key - self.n_bell


def sift(rounds: Rounds) -> Sifted:
    """Masks, count tensor and both keys of a session (see ``Party.sift_masks``)."""
    det = rounds.detected
    key, bell_mask = Party(rounds.setting_a, det).sift_masks(rounds.setting_b)
    cells = 27 * rounds.setting_a.astype(np.int16) + 9 * rounds.outcome_a \
        + 3 * rounds.setting_b + rounds.outcome_b - 30
    counts = np.bincount(cells[det], minlength=81).reshape(DIM, DIM, DIM, DIM)
    return Sifted(key_mask=key, bell_mask=bell_mask, counts=counts,
                  key_a=rounds.outcome_a[key].astype(np.int8),
                  key_b=SWAP_12[rounds.outcome_b[key]])


def estimate_s3(counts: np.ndarray) -> tuple[float, float]:
    """Empirical S3 and its standard error from a count tensor.

    ``counts`` is indexed like ``Sifted.counts``; only the four Bell setting
    pairs are read.  Probabilities are per-setting-pair frequencies; the
    uncertainty treats every outcome count as an independent Poisson
    variable propagated through the Bell expression.
    """
    all_counts = np.asarray(counts, dtype=float)
    if all_counts.shape != (DIM, DIM, DIM, DIM):
        raise ValidationError(f"count tensor must have shape (3, 3, 3, 3), got {all_counts.shape}")
    s3_total = 0.0
    variance = 0.0
    for pair, coeff in bell.s3_coefficients().items():
        pair_counts = all_counts[pair[0] - 1, :, pair[1] - 1, :]
        total = pair_counts.sum()
        if total == 0:
            raise InsufficientDataError(f"no rounds with setting pair {pair}")
        contribution = float((coeff * pair_counts).sum() / total)
        s3_total += contribution
        variance += float((pair_counts * ((coeff - contribution) / total) ** 2).sum())
    return s3_total, float(np.sqrt(variance))


def qter(key_a, key_b) -> float:
    """Fraction of positions where the two trit keys differ."""
    a = np.asarray(key_a)
    b = np.asarray(key_b)
    if a.shape != b.shape:
        raise ValidationError(f"key length mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise InsufficientDataError("cannot compute a trit error rate on empty keys")
    return float(np.mean(a != b))


@dataclass(frozen=True)
class SecurityReport:
    secure: bool
    s3_estimate: float
    s3_sigma: float
    sigmas_above_classical: float
    qter: float
    noise_bound: float = NOISE_BOUND_QUTRIT

    def lines(self) -> list[str]:
        noise = "below" if self.qter < self.noise_bound else "ABOVE"
        return [
            f"S3 estimate        {self.s3_estimate:.4f} +- {self.s3_sigma:.4f}",
            f"classical bound    2.0000 ({self.sigmas_above_classical:.2f} sigma above)",
            f"QTER               {self.qter:.4f} ({noise} the {self.noise_bound:.3f} noise bound)",
            f"verdict            {'SECURE' if self.secure else 'NOT SECURE'}",
        ]


def security_verdict(s3_estimate: float, s3_sigma: float, qter_value: float) -> SecurityReport:
    """Secure if and only if the estimated S3 exceeds the classical bound 2."""
    margin = s3_estimate - bell.CLASSICAL_BOUND
    if s3_sigma > 0:
        sigmas = margin / s3_sigma
    else:
        sigmas = float(np.inf) if margin > 0 else (float(-np.inf) if margin < 0 else 0.0)
    return SecurityReport(
        secure=s3_estimate > bell.CLASSICAL_BOUND,
        s3_estimate=float(s3_estimate),
        s3_sigma=float(s3_sigma),
        sigmas_above_classical=float(sigmas),
        qter=float(qter_value),
    )


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Message:
    sender: str
    kind: str
    payload: object


@dataclass
class SessionResult:
    sifted_fractions: tuple
    key_a: np.ndarray
    key_b: np.ndarray
    report: SecurityReport
    transcript: tuple
    n_rounds: int
    n_detected: int

    @property
    def s3_estimate(self) -> float:
        return self.report.s3_estimate

    @property
    def s3_sigma(self) -> float:
        return self.report.s3_sigma

    @property
    def qter(self) -> float:
        return self.report.qter

    @property
    def secure(self) -> bool:
        return self.report.secure


def _joined(part: list) -> np.ndarray:
    """The chunks joined; the list is emptied so only one copy stays alive."""
    whole = np.concatenate(part)
    part.clear()
    return whole


def analyze(chunks: Rounds | Iterable[Rounds]) -> SessionResult:
    """Sift a session chunk by chunk, then estimate S3, the QTER and the verdict.

    ``chunks`` is one ``Rounds`` or an iterable of them in round order; each
    is sifted once and dropped, keeping only the count tensor, the keys and
    the public messages.  ``transcript`` lists what the parties make public,
    in order: both setting sequences, B's Bell-round outcomes, B's key trits
    (the simulation-only error-rate comparison) and A's verdict.
    """
    if isinstance(chunks, Rounds):
        chunks = (chunks,)
    counts = np.zeros((DIM, DIM, DIM, DIM), dtype=np.int64)
    n = n_bell = 0
    # settings A, settings B, B's Bell-round outcomes, key A, key B
    parts = ([], [], [], [], [])
    for rounds in chunks:
        sifted = sift(rounds)
        counts += sifted.counts
        n += len(rounds)
        n_bell += sifted.n_bell
        for part, value in zip(parts, (rounds.setting_a, rounds.setting_b,
                                       rounds.outcome_b[sifted.bell_mask],
                                       sifted.key_a, sifted.key_b)):
            part.append(value)
    if n == 0:
        raise InsufficientDataError("no rounds")
    setting_a, setting_b, bell_b, key_a, key_b = map(_joined, parts)
    s3_hat, s3_sigma = estimate_s3(counts)
    qter_value = qter(key_a, key_b)
    report = security_verdict(s3_hat, s3_sigma, qter_value)
    transcript = (
        Message("A", "settings", setting_a),
        Message("B", "settings", setting_b),
        Message("B", "bell-outcomes", bell_b),
        Message("B", "key-comparison-diagnostic", key_b),
        Message("A", "verdict", {"secure": report.secure, "s3": s3_hat,
                                 "sigma": s3_sigma, "qter": qter_value}),
    )
    n_detected = int(counts.sum())
    n_key = len(key_a)
    return SessionResult(
        sifted_fractions=(n_key / n, n_bell / n, (n_detected - n_key - n_bell) / n),
        key_a=key_a,
        key_b=key_b,
        report=report,
        transcript=transcript,
        n_rounds=n,
        n_detected=n_detected,
    )


def run_protocol(n_rounds: int, source: SourceConfig | None = None,
                 eve: EveConfig | None = None,
                 parties: tuple | None = None, seed: int = 0) -> SessionResult:
    """A seeded session, sampled by ``iter_session`` and analyzed chunk by
    chunk by ``analyze``."""
    source = source if source is not None else SourceConfig()
    eve = eve if eve is not None else EveConfig()
    a_cfg, b_cfg = parties if parties is not None else default_parties()
    return analyze(iter_session(n_rounds, source, eve, a_cfg, b_cfg, seed))


# ---------------------------------------------------------------------------
# Transcript files
# ---------------------------------------------------------------------------
#
# One round per line: round_id setting_a outcome_a setting_b outcome_b detected.
#   round_id    decimal digits (at most 18), strictly increasing down the file
#   setting_*   1, 2 or 3
#   detected    0 or 1
#   outcome_*   0, 1 or 2 when detected is 1, '-' when detected is 0
# Fields are separated by runs of spaces, tabs, CR, VT or FF.  Blank lines and
# lines whose first field starts with '#' are skipped; '# key = value' lines
# anywhere form the header.  Both directions work on fixed-size chunks: a
# whole-file pass holds tens of bytes of index arrays per transcript byte.

_WRITE_CHUNK_ROWS = 1 << 15
_READ_BLOCK_BYTES = 1 << 18
_MAX_ID_DIGITS = 18                 # every such id fits in an int64
_POW10 = 10 ** np.arange(1, _MAX_ID_DIGITS + 1, dtype=np.int64)
_LINE_TAIL = np.frombuffer(b" 0 0 0 0 0\n", dtype=np.uint8)
_DASH = ord("-")


def _byte_set(chars: bytes) -> np.ndarray:
    table = np.zeros(256, dtype=bool)
    table[list(chars)] = True
    return table


_IS_SOLID = ~_byte_set(b" \t\r\v\f\n")
_IS_SETTING = _byte_set(b"123")
# detected character -> 0, 1, or 2 for anything else
_DETECTED_CODE = np.full(256, 2, dtype=np.uint8)
_DETECTED_CODE[[ord("0"), ord("1")]] = [0, 1]
# [detected code, outcome character] -> outcome allowed
_OUTCOME_OK = np.stack((_byte_set(b"-"), _byte_set(b"012"), np.ones(256, dtype=bool)))
# character -> field value ('-' reads as -1)
_CHAR_VALUE = np.full(256, -1, dtype=np.int8)
_CHAR_VALUE[ord("0"):ord("9") + 1] = np.arange(10)

_FAULTS = (
    f"round_id {{0!r}} is not a non-negative integer of at most {_MAX_ID_DIGITS} digits",
    "setting_a {1!r} is not 1, 2 or 3",
    "setting_b {3!r} is not 1, 2 or 3",
    "detected {5!r} is not 0 or 1",
    "outcome_a {2!r} must be {want} when detected is {5}",
    "outcome_b {4!r} must be {want} when detected is {5}",
    "round_id {0} does not exceed the previous round_id {prev}",
)


def _first_fault(ids, id_ok, prev_id, chars, fields_of):
    """(row, message) for the first row breaking the transcript grammar, or None.

    ``chars`` stacks each row's single-character fields (setting_a,
    outcome_a, setting_b, outcome_b, detected) as uint8 rows; ``fields_of``
    renders one row's six fields as text for the message.
    """
    sa, oa, sb, ob, det = chars
    det_code = _DETECTED_CODE[det]
    faults = np.stack((
        ~id_ok,
        ~_IS_SETTING[sa],
        ~_IS_SETTING[sb],
        det_code == 2,
        ~_OUTCOME_OK[det_code, oa],
        ~_OUTCOME_OK[det_code, ob],
        ids <= np.concatenate(([prev_id], ids[:-1])),
    ))
    bad = faults.any(axis=0)
    if not bad.any():
        return None
    row = int(bad.argmax())
    fields = fields_of(row)
    message = _FAULTS[int(faults[:, row].argmax())].format(
        *fields, want="0, 1 or 2" if fields[5] == "1" else "'-'",
        prev=ids[row - 1] if row else prev_id)
    return row, message


def _format_rows(ids: np.ndarray, chars: np.ndarray) -> bytes:
    """Transcript lines for valid rows: the id's digits, then an 11-byte tail."""
    width = 1 + np.searchsorted(_POW10, ids, side="right")
    w = int(width.max())
    table = np.empty((len(ids), w + len(_LINE_TAIL)), dtype=np.uint8)
    table[:, w:] = _LINE_TAIL
    table[:, w + 1:w + 10:2] = chars.T
    rest = ids
    for col in range(w - 1, -1, -1):
        rest, digit = np.divmod(rest, 10)
        table[:, col] = digit + 48
    keep = np.arange(table.shape[1]) >= (w - width)[:, None]
    return table[keep].tobytes()


def _digit_chars(values: np.ndarray) -> np.ndarray:
    return np.where((values >= 0) & (values <= 9), values + 48, ord("?")).astype(np.uint8)


def _round_fields(rounds: Rounds, i: int) -> tuple:
    det = bool(rounds.detected[i])
    return (str(rounds.round_id[i]), str(rounds.setting_a[i]),
            str(rounds.outcome_a[i]) if det else "-", str(rounds.setting_b[i]),
            str(rounds.outcome_b[i]) if det else "-", str(int(det)))


def transcribe(path, chunks: Rounds | Iterable[Rounds],
               header: dict | None = None) -> Iterator[Rounds]:
    """Write a session to a transcript file as its chunks pass through.

    Yields each ``Rounds`` chunk once its lines are written, so a session
    can be written and analyzed in one pass; the file is complete when the
    iteration ends.  Header lines are '# key = value'.  Rounds that the
    reader would reject raise ValidationError naming the round's index in
    the session; earlier lines are already written by then.
    """
    if isinstance(chunks, Rounds):
        chunks = (chunks,)
    with open(path, "wb") as fh:
        fh.write("".join(f"# {key} = {value}\n"
                         for key, value in (header or {}).items()).encode())
        prev_id, base = -1, 0
        for rounds in chunks:
            for lo in range(0, len(rounds), _WRITE_CHUNK_ROWS):
                part = rounds.subset(slice(lo, lo + _WRITE_CHUNK_ROWS))
                ids = part.round_id.astype(np.int64)
                det = part.detected.astype(bool)
                chars = np.stack((
                    _digit_chars(part.setting_a),
                    np.where(det, _digit_chars(part.outcome_a), _DASH),
                    _digit_chars(part.setting_b),
                    np.where(det, _digit_chars(part.outcome_b), _DASH),
                    det + np.uint8(48),
                )).astype(np.uint8)
                fault = _first_fault(ids, (ids >= 0) & (ids < 10 ** _MAX_ID_DIGITS),
                                     prev_id, chars, lambda row: _round_fields(part, row))
                if fault is not None:
                    row, message = fault
                    raise ValidationError(f"{path}: round index {base + lo + row}: {message}")
                fh.write(_format_rows(ids, chars))
                prev_id = ids[-1]
            base += len(rounds)
            yield rounds


def write_transcript(path, rounds: Rounds | Iterable[Rounds], header: dict | None = None) -> None:
    """One round per line: round_id setting_a outcome_a setting_b outcome_b detected.

    ``rounds`` is one ``Rounds`` or an iterable of chunks in round order.
    Missing outcomes (undetected rounds) are written as '-'.  See
    ``transcribe``, which does the writing.
    """
    for _ in transcribe(path, rounds, header):
        pass


def _parse_lines(data: bytes, path, line0: int, prev_id: int, header: dict):
    """Columns of the rounds in ``data``, whole lines ending in a newline.

    ``line0`` is the number of lines before ``data`` and ``prev_id`` the
    last round id before it; header lines are added to ``header``.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == 10)
    starts, ends = np.flatnonzero(np.diff(
        _IS_SOLID.take(buf), prepend=False, append=False)).reshape(-1, 2).T
    # line j holds fields first[j] .. first[j] + n_fields[j] - 1
    last = np.searchsorted(starts, newlines)
    first = np.concatenate(([0], last[:-1]))
    n_fields = last - first
    used = np.flatnonzero(n_fields)
    comment = buf[starts[first[used]]] == ord("#")
    for j in used[comment]:
        body = data[starts[first[j]] + 1:newlines[j]].decode(errors="replace").strip()
        if "=" in body:
            key, _, value = body.partition("=")
            header[key.strip()] = value.strip()

    lines = used[~comment]
    wrong = n_fields[lines] != 6
    rows = lines[~wrong]
    field = first[rows] + np.arange(6)[:, None]
    size = ends[field] - starts[field]
    chars = np.where(size[1:] == 1, buf[starts[field[1:]]], np.uint8(0))

    id_start, id_size = starts[field[0]], size[0]
    id_ok = id_size <= _MAX_ID_DIGITS
    ids = np.zeros(len(rows), dtype=np.int64)
    for k in range(min(int(id_size.max(initial=0)), _MAX_ID_DIGITS)):
        live = k < id_size
        digit = buf[id_start + np.minimum(k, id_size - 1)] - np.uint8(48)
        id_ok &= ~live | (digit <= 9)
        ids = np.where(live, 10 * ids + digit, ids)

    errors = []
    if wrong.any():
        j = lines[wrong.argmax()]
        errors.append((j, f"expected 6 fields, got {n_fields[j]}"))
    fault = _first_fault(ids, id_ok, prev_id, chars, lambda row: tuple(
        data[starts[f]:ends[f]].decode(errors="replace") for f in field[:, row]))
    if fault is not None:
        row, message = fault
        errors.append((rows[row], message))
    if errors:
        at, message = min(errors)
        raise ValidationError(f"{path}:{line0 + at + 1}: {message}")

    sa, oa, sb, ob, det = (_CHAR_VALUE.take(c) for c in chars)   # one array each
    return (ids, sa, oa, sb, ob, det.astype(bool)), len(newlines)


def iter_transcript(path, header: dict | None = None) -> Iterator[Rounds]:
    """Parse a transcript file one read block at a time.

    Yields the rounds of each block as a ``Rounds`` chunk, in file order,
    and adds header lines to ``header`` as they are read.  Raises
    ValidationError with the line number of the first bad line.
    """
    header = {} if header is None else header
    line0, prev_id, rest = 0, -1, b""
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_READ_BLOCK_BYTES)
            data = rest + block
            if block:
                cut = data.rfind(b"\n") + 1
                data, rest = data[:cut], data[cut:]
            elif data:
                data += b"\n"               # the last line lacks its newline
            if data:
                cols, n_lines = _parse_lines(data, path, line0, prev_id, header)
                line0 += n_lines
                if len(cols[0]):
                    prev_id = cols[0][-1]
                    yield Rounds(*cols)
            if not block:
                break


def read_transcript(path) -> tuple[Rounds, dict]:
    """Parse a whole transcript file: the chunks of ``iter_transcript`` joined."""
    header = {}
    rounds = _concat(iter_transcript(path, header))
    return rounds, header
