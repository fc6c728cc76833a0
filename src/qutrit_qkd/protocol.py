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
        if p.shape != (3,) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
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
                    a: PartyConfig, b: PartyConfig) -> dict:
    """Exact outcome tables per setting pair, with outcome-level noise folded in.

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
    return {(sa, sb): t[sa - 1, :, sb - 1, :] for sa in (1, 2, 3) for sb in (1, 2, 3)}


def exact_session_s3(source: SourceConfig, eve: EveConfig = EveConfig(),
                     parties: tuple | None = None) -> float:
    """Exact S3 implied by a session configuration (no sampling)."""
    a, b = parties if parties is not None else default_parties()
    tables = _setting_tables(source, eve, a, b)
    return sum(float((coeff * tables[pair]).sum())
               for pair, coeff in bell.s3_coefficients().items())


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
# Round records and sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundRecord:
    round_id: int
    setting_a: int
    outcome_a: int | None
    setting_b: int
    outcome_b: int | None
    detected: bool


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

    def __getitem__(self, i: int) -> RoundRecord:
        det = bool(self.detected[i])
        return RoundRecord(
            round_id=int(self.round_id[i]),
            setting_a=int(self.setting_a[i]),
            outcome_a=int(self.outcome_a[i]) if det else None,
            setting_b=int(self.setting_b[i]),
            outcome_b=int(self.outcome_b[i]) if det else None,
            detected=det,
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def subset(self, mask: np.ndarray) -> "Rounds":
        return Rounds(*(col[mask] for col in self._columns()))

    def _columns(self):
        return (self.round_id, self.setting_a, self.outcome_a,
                self.setting_b, self.outcome_b, self.detected)

    @classmethod
    def from_records(cls, records) -> "Rounds":
        records = list(records)
        return cls(
            round_id=np.array([r.round_id for r in records], dtype=np.int64),
            setting_a=np.array([r.setting_a for r in records], dtype=np.int8),
            outcome_a=np.array([-1 if r.outcome_a is None else r.outcome_a
                                for r in records], dtype=np.int8),
            setting_b=np.array([r.setting_b for r in records], dtype=np.int8),
            outcome_b=np.array([-1 if r.outcome_b is None else r.outcome_b
                                for r in records], dtype=np.int8),
            detected=np.array([r.detected for r in records], dtype=bool),
        )


def _sample_settings(rng, party: PartyConfig, n: int) -> np.ndarray:
    return rng.choice(np.array([1, 2, 3], dtype=np.int8), size=n,
                      p=np.asarray(party.setting_probabilities, dtype=float))


def sample_round(rng: np.random.Generator, source: SourceConfig, eve: EveConfig,
                 a: PartyConfig, b: PartyConfig, round_id: int = 0,
                 _tables: dict | None = None) -> RoundRecord:
    """Draw one protocol round; deterministic for a fixed generator state.

    Rebuilds the exact outcome tables on every call unless ``_tables`` is
    supplied; use :func:`run_session` for bulk sampling.
    """
    tables = _tables if _tables is not None else _setting_tables(source, eve, a, b)
    sa = int(_sample_settings(rng, a, 1)[0])
    sb = int(_sample_settings(rng, b, 1)[0])
    detected = bool(rng.random() < source.detection_efficiency)
    if not detected:
        return RoundRecord(round_id, sa, None, sb, None, False)
    flat = tables[(sa, sb)].ravel()
    idx = int(np.searchsorted(np.cumsum(flat), rng.random(), side="right"))
    idx = min(idx, 8)
    return RoundRecord(round_id, sa, idx // 3, sb, idx % 3, True)


def run_session(n_rounds: int, source: SourceConfig, eve: EveConfig,
                a: PartyConfig, b: PartyConfig, seed: int) -> Rounds:
    """Generate a full seeded measurement session.

    Vectorized over rounds: settings and detection are drawn per round,
    outcomes are drawn from the exact per-setting-pair tables.  Identical
    seeds and configurations reproduce the session bit for bit.
    """
    if n_rounds <= 0:
        raise ValidationError(f"n_rounds must be positive, got {n_rounds}")
    rng = np.random.default_rng(seed)
    tables = _setting_tables(source, eve, a, b)

    sa = _sample_settings(rng, a, n_rounds)
    sb = _sample_settings(rng, b, n_rounds)
    detected = rng.random(n_rounds) < source.detection_efficiency
    u = rng.random(n_rounds)

    out_a = np.full(n_rounds, -1, dtype=np.int8)
    out_b = np.full(n_rounds, -1, dtype=np.int8)
    for pair, table in tables.items():
        mask = (sa == pair[0]) & (sb == pair[1]) & detected
        if not mask.any():
            continue
        cdf = np.cumsum(table.ravel())
        idx = np.minimum(np.searchsorted(cdf, u[mask], side="right"), 8)
        out_a[mask] = idx // 3
        out_b[mask] = idx % 3

    return Rounds(
        round_id=np.arange(n_rounds, dtype=np.int64),
        setting_a=sa, outcome_a=out_a,
        setting_b=sb, outcome_b=out_b,
        detected=detected,
    )


# ---------------------------------------------------------------------------
# Sifting, estimation, keys
# ---------------------------------------------------------------------------

@dataclass
class SiftResult:
    key_rounds: Rounds
    bell_rounds: Rounds
    discarded: Rounds


def sift(rounds: Rounds) -> SiftResult:
    """Partition detected rounds into key, Bell-test and discarded sets.

    Key rounds have both parties on setting 3; Bell rounds have both on
    settings 1 or 2; mixed pairs are discarded.  Undetected rounds belong
    to none of the three sets.
    """
    det = rounds.detected
    key = det & (rounds.setting_a == 3) & (rounds.setting_b == 3)
    bell_mask = det & (rounds.setting_a <= 2) & (rounds.setting_b <= 2)
    disc = det & ~key & ~bell_mask
    return SiftResult(
        key_rounds=rounds.subset(key),
        bell_rounds=rounds.subset(bell_mask),
        discarded=rounds.subset(disc),
    )


def estimate_s3(bell_rounds: Rounds) -> tuple[float, float]:
    """Empirical S3 and its standard error from sifted Bell rounds.

    Probabilities are per-setting-pair frequencies; the uncertainty treats
    every outcome count as an independent Poisson variable propagated
    through the Bell expression.
    """
    s3_total = 0.0
    variance = 0.0
    cells = 9 * (3 * (bell_rounds.setting_a.astype(np.int64) - 1) + bell_rounds.outcome_a) \
        + 3 * (bell_rounds.setting_b.astype(np.int64) - 1) + bell_rounds.outcome_b
    all_counts = np.bincount(cells, minlength=81).reshape(DIM, DIM, DIM, DIM).astype(float)
    for pair, coeff in bell.s3_coefficients().items():
        counts = all_counts[pair[0] - 1, :, pair[1] - 1, :]
        total = counts.sum()
        if total == 0:
            raise InsufficientDataError(f"no rounds with setting pair {pair}")
        contribution = float((coeff * counts).sum() / total)
        s3_total += contribution
        variance += float((counts * ((coeff - contribution) / total) ** 2).sum())
    return s3_total, float(np.sqrt(variance))


def extract_keys(key_rounds: Rounds) -> tuple[np.ndarray, np.ndarray]:
    """Trit keys from key rounds; B's outcomes 1 and 2 are exchanged."""
    key_a = key_rounds.outcome_a.astype(np.int8)
    key_b = SWAP_12[key_rounds.outcome_b]
    return key_a, key_b


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
# Two-party message exchange
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Message:
    sender: str
    kind: str
    payload: object


class ClassicalChannel:
    """Public classical channel; every announcement lands in the transcript."""

    def __init__(self):
        self.messages: list[Message] = []

    def send(self, sender: str, kind: str, payload):
        self.messages.append(Message(sender=sender, kind=kind, payload=payload))
        return payload


class Party:
    """One observer's private measurement data and local computations."""

    def __init__(self, name: str, settings: np.ndarray, outcomes: np.ndarray,
                 detected: np.ndarray):
        self.name = name
        self.settings = settings
        self.outcomes = outcomes
        self.detected = detected

    def announce_settings(self, channel: ClassicalChannel) -> np.ndarray:
        return channel.send(self.name, "settings", self.settings.copy())

    def sift_masks(self, other_settings: np.ndarray):
        det = self.detected
        key = det & (self.settings == 3) & (other_settings == 3)
        bell_mask = det & (self.settings <= 2) & (other_settings <= 2)
        return key, bell_mask

    def announce_bell_outcomes(self, channel: ClassicalChannel,
                               other_settings: np.ndarray) -> np.ndarray:
        _, bell_mask = self.sift_masks(other_settings)
        return channel.send(self.name, "bell-outcomes", self.outcomes[bell_mask].copy())

    def key_trits(self, other_settings: np.ndarray) -> np.ndarray:
        key_mask, _ = self.sift_masks(other_settings)
        trits = self.outcomes[key_mask].astype(np.int8)
        if self.name == "B":
            trits = SWAP_12[trits]
        return trits

    def estimate_bell(self, other_settings: np.ndarray,
                      announced_outcomes: np.ndarray) -> tuple[float, float]:
        _, bell_mask = self.sift_masks(other_settings)
        n = int(bell_mask.sum())
        if self.name == "A":
            sa, oa = self.settings[bell_mask], self.outcomes[bell_mask]
            sb, ob = other_settings[bell_mask], announced_outcomes
        else:
            sb, ob = self.settings[bell_mask], self.outcomes[bell_mask]
            sa, oa = other_settings[bell_mask], announced_outcomes
        joined = Rounds(
            round_id=np.arange(n, dtype=np.int64),
            setting_a=sa, outcome_a=oa,
            setting_b=sb, outcome_b=ob,
            detected=np.ones(n, dtype=bool),
        )
        return estimate_s3(joined)


@dataclass
class SessionResult:
    s3_estimate: float
    s3_sigma: float
    qter: float
    sifted_fractions: tuple
    key_a: np.ndarray
    key_b: np.ndarray
    secure: bool
    report: SecurityReport
    transcript: tuple
    n_rounds: int
    n_detected: int
    rounds: "Rounds" = None


def run_protocol(n_rounds: int, source: SourceConfig | None = None,
                 eve: EveConfig | None = None,
                 parties: tuple | None = None, seed: int = 0) -> SessionResult:
    """Full protocol session between two party objects over a logged channel.

    The physics layer produces each side's private data; everything either
    side learns about the other travels through the classical channel
    (setting announcements, B's Bell-round outcomes, the verdict, and B's
    key trits for the simulation-only error-rate comparison), so the
    transcript shows exactly what was made public.
    """
    source = source if source is not None else SourceConfig()
    eve = eve if eve is not None else EveConfig()
    a_cfg, b_cfg = parties if parties is not None else default_parties()

    rounds = run_session(n_rounds, source, eve, a_cfg, b_cfg, seed)
    alice = Party("A", rounds.setting_a, rounds.outcome_a, rounds.detected)
    bob = Party("B", rounds.setting_b, rounds.outcome_b, rounds.detected)
    channel = ClassicalChannel()

    settings_a = alice.announce_settings(channel)
    settings_b = bob.announce_settings(channel)

    announced = bob.announce_bell_outcomes(channel, settings_a)
    s3_hat, s3_sigma = alice.estimate_bell(settings_b, announced)

    key_a = alice.key_trits(settings_b)
    key_b_announced = channel.send("B", "key-comparison-diagnostic",
                                   bob.key_trits(settings_a))
    qter_value = qter(key_a, key_b_announced)

    report = security_verdict(s3_hat, s3_sigma, qter_value)
    channel.send("A", "verdict", {
        "secure": report.secure,
        "s3": s3_hat,
        "sigma": s3_sigma,
        "qter": qter_value,
    })

    sifted = sift(rounds)
    n = len(rounds)
    fractions = (len(sifted.key_rounds) / n, len(sifted.bell_rounds) / n,
                 len(sifted.discarded) / n)
    return SessionResult(
        s3_estimate=s3_hat,
        s3_sigma=s3_sigma,
        qter=qter_value,
        sifted_fractions=fractions,
        key_a=key_a,
        key_b=bob.key_trits(settings_a),
        secure=report.secure,
        report=report,
        transcript=tuple(channel.messages),
        n_rounds=n,
        n_detected=int(rounds.detected.sum()),
        rounds=rounds,
    )


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


def write_transcript(path, rounds: Rounds, header: dict | None = None) -> None:
    """One round per line: round_id setting_a outcome_a setting_b outcome_b detected.

    Missing outcomes (undetected rounds) are written as '-'.  Header lines
    are '# key = value'.  Rounds that the reader would reject raise
    ValidationError naming the round's index; earlier chunks are already
    written by then.
    """
    with open(path, "wb") as fh:
        fh.write("".join(f"# {key} = {value}\n"
                         for key, value in (header or {}).items()).encode())
        prev_id = -1
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
                raise ValidationError(f"{path}: round index {lo + row}: {message}")
            fh.write(_format_rows(ids, chars))
            prev_id = ids[-1]


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

    values = _CHAR_VALUE[chars]
    return (ids, values[0], values[1], values[2], values[3],
            values[4].astype(bool)), len(newlines)


def read_transcript(path) -> tuple[Rounds, dict]:
    """Parse a transcript file; raises ValidationError with the line number."""
    header = {}
    columns = [[np.zeros(0, dtype=dt)] for dt in
               (np.int64, np.int8, np.int8, np.int8, np.int8, bool)]
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
                for column, part in zip(columns, cols):
                    column.append(part)
                line0 += n_lines
                prev_id = cols[0][-1] if len(cols[0]) else prev_id
            if not block:
                break
    return Rounds(*(np.concatenate(column) for column in columns)), header
