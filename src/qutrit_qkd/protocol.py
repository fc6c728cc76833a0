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
    diagonal_state,
    make_state,
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
    """A party's probabilities of choosing settings 1, 2 and 3 (key)."""

    setting_probabilities: tuple = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self):
        p = np.asarray(self.setting_probabilities, dtype=float)
        if p.shape != (3,) or not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-12):
            raise ValidationError(
                f"setting probabilities must be 3 non-negative reals summing to 1, got {p}")


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


# The fixed analyzers, rows of settings 1, 2 and 3 stacked (9, 3) per party: the
# canonical phase bases, B's relabeled 1<->2 as the source form is, then the key basis.
_BELL = bell.canonical_settings()
_ROWS_A = np.concatenate((_BELL.a1, _BELL.a2, computational_basis()))
_ROWS_B = np.concatenate((_BELL.b1[:, SWAP_12], _BELL.b2[:, SWAP_12], computational_basis()))
_ROWS_A.setflags(write=False)
_ROWS_B.setflags(write=False)


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


def _setting_tables(source: SourceConfig, eve: EveConfig) -> np.ndarray:
    """Exact outcome tables of all setting pairs, with outcome-level noise folded in.

    Indexed ``[setting_a - 1, outcome_a, setting_b - 1, outcome_b]``.
    Background replaces any round's outcomes with a uniform pair; key
    crosstalk does the same on the (3, 3) pair only.  Both act at the
    probability level, so folding them into the tables is exact.  All nine
    pairs come from one call of the Born kernel.
    """
    mixed = post_eve_mixture(source_mixture(source), eve)
    t = born_tables(_ROWS_A, _ROWS_B, mixed.psis, mixed.weights, mixed.white_noise_weight)
    uniform = 1.0 / 9.0
    t = (1.0 - source.background_fraction) * t + source.background_fraction * uniform
    if source.key_crosstalk > 0.0:
        t[2, :, 2, :] = (1.0 - source.key_crosstalk) * t[2, :, 2, :] \
            + source.key_crosstalk * uniform
    return t


def exact_session_s3(source: SourceConfig, eve: EveConfig = EveConfig()) -> float:
    """Exact S3 implied by a session configuration (no sampling)."""
    return bell.s3_of(_setting_tables(source, eve)[:2, :, :2, :])


def calibrate_noise(coefficients=REFERENCE_COEFFICIENTS,
                    target_s3: float = REFERENCE_S3,
                    target_qter: float = REFERENCE_QTER) -> tuple[float, float]:
    """Solve for (visibility, key_crosstalk) hitting target S3 and QTER.

    S3 scales linearly with visibility at fixed settings; the key error
    rate is 2/3 of the total uniform-noise weight seen by key rounds.
    Raises if the targets are outside the reachable region.
    """
    s3_pure = bell.s3(diagonal_state(coefficients), bell.canonical_settings())
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
# Outcome-index lookup over _BUCKETS (a power of two) buckets of u per setting
# pair.  Only sessions of at least _BUCKET_MIN_ROUNDS rounds build the table:
# below that its fixed cost (the build, ~35 us, and the exact pass over the
# rows of split buckets) exceeds what the lookup saves.  The two broke even
# near 12000 rounds on a 2-core Xeon.
_BUCKETS = 256
_BUCKET_MIN_ROUNDS = 1 << 14
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
    per-setting-pair tables of the fixed analyzers; ``a`` and ``b`` give the
    setting probabilities.  Chunking does not change the draws: identical
    seeds and configurations reproduce the session bit for bit.
    """
    if n_rounds <= 0:
        raise ValidationError(f"n_rounds must be positive, got {n_rounds}")
    t = _setting_tables(source, eve)
    cdf = np.cumsum(t.transpose(0, 2, 1, 3).reshape(9, 9), axis=1)
    # row k holds every setting pair's k-th cumulative outcome probability
    thresholds = np.ascontiguousarray(cdf[:, :8].T)
    return _sample_chunks(n_rounds, np.random.PCG64(seed), thresholds,
                          _setting_cdf(a), _setting_cdf(b), source.detection_efficiency)


def _count_below(thresholds, pair, u) -> np.ndarray:
    """Outcome index, exactly: how many of the pair's thresholds are <= u."""
    pair = pair.astype(np.intp)         # else each take converts the indices again
    idx = np.zeros(len(u), dtype=np.int8)
    for row in thresholds:
        idx += row.take(pair) <= u
    return idx


def _bucket_table(thresholds) -> np.ndarray:
    """Outcome index per bucket [b/K, (b+1)/K) of u, K = _BUCKETS, as a flat int8 table.

    Entry ``K * pair + b`` is the number of the pair's thresholds <= b/K,
    which is the index of every u in the bucket, or -1 when a threshold lies
    strictly inside the bucket.  K is a power of two, so K * t and K * u are
    exact and the table holds for any thresholds.
    """
    kt = _BUCKETS * thresholds.T                # (pair, threshold)
    pair = np.arange(9)[:, None]
    # first bucket whose lower edge is >= t; sums rounded above 1 stay in the pair
    first = np.clip(np.ceil(kt), 0, _BUCKETS).astype(np.intp) + (_BUCKETS + 1) * pair
    table = np.bincount(first.ravel(), minlength=9 * (_BUCKETS + 1)).reshape(
        9, _BUCKETS + 1).cumsum(axis=1, dtype=np.int8)[:, :_BUCKETS]
    inside = (kt > 0) & (kt < _BUCKETS) & (kt != np.ceil(kt))
    table[np.broadcast_to(pair, kt.shape)[inside], kt[inside].astype(np.intp)] = -1
    return table.ravel()


def _sample_chunks(n: int, bitgen, thresholds, cdf_a, cdf_b, detection):
    rng = np.random.Generator(bitgen)
    seeded = bitgen.state
    buckets = _bucket_table(thresholds) if n >= _BUCKET_MIN_ROUNDS else None
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
        pair = 3 * sa.astype(np.int16) + sb - 4
        if buckets is None:
            idx = _count_below(thresholds, pair, u)
        else:
            idx = buckets.take(_BUCKETS * pair + (u * _BUCKETS).astype(np.int16))
            hard = np.flatnonzero(idx < 0)      # u in a bucket split by a threshold
            idx[hard] = _count_below(thresholds, pair.take(hard), u.take(hard))
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

    def sift_masks(self, other_settings: np.ndarray) -> np.ndarray:
        """Key mask: detected rounds with both parties on setting 3.  Detected
        rounds with both on setting 1 or 2 are the Bell rounds, the block
        ``counts[:2, :, :2, :]`` of the count tensor; detected rounds in
        neither are discarded.  This is the only statement of the sifting rule."""
        return self.detected & (self.settings == 3) & (other_settings == 3)


@dataclass(frozen=True)
class Sifted:
    """A session sifted in one pass.

    ``counts[sa - 1, oa, sb - 1, ob]`` counts the detected rounds by setting
    pair and outcome pair; every round count is read from it.  ``key_a`` and
    ``key_b`` are the key-round outcomes in round order, B's with outcomes 1
    and 2 exchanged.
    """

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
        return int(self.counts[:2, :, :2, :].sum())

    @property
    def n_discarded(self) -> int:
        return self.n_detected - self.n_key - self.n_bell


def sift(rounds: Rounds) -> Sifted:
    """Count tensor and both keys of a session (see ``Party.sift_masks``)."""
    det = rounds.detected
    key = Party(rounds.setting_a, det).sift_masks(rounds.setting_b)
    cells = 27 * rounds.setting_a.astype(np.int16) + 9 * rounds.outcome_a \
        + 3 * rounds.setting_b + rounds.outcome_b - 30
    # detected cells through an index list, which a boolean compress is
    # slower than at any detection rate below 1; at 1 there is nothing to drop
    detected_cells = cells if det.all() else cells.take(np.flatnonzero(det))
    counts = np.bincount(detected_cells, minlength=81).reshape(DIM, DIM, DIM, DIM)
    rows = np.flatnonzero(key)      # indices, not a mask: key rounds are sparse
    return Sifted(counts=counts, key_a=rounds.outcome_a.take(rows).astype(np.int8),
                  key_b=SWAP_12[rounds.outcome_b.take(rows)])


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
    for a, b in ((1, 1), (2, 1), (2, 2), (1, 2)):
        coeff = bell.S3_COEFFICIENTS[a - 1, :, b - 1, :]
        pair_counts = all_counts[a - 1, :, b - 1, :]
        total = pair_counts.sum()
        if total == 0:
            raise InsufficientDataError(f"no rounds with setting pair {(a, b)}")
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

    def lines(self) -> list[str]:
        noise = "below" if self.qter < NOISE_BOUND_QUTRIT else "ABOVE"
        return [
            f"S3 estimate        {self.s3_estimate:.4f} +- {self.s3_sigma:.4f}",
            f"classical bound    2.0000 ({self.sigmas_above_classical:.2f} sigma above)",
            f"QTER               {self.qter:.4f} ({noise} the {NOISE_BOUND_QUTRIT:.3f} noise bound)",
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
class SessionResult(Sifted, SecurityReport):
    """A whole session's ``Sifted`` tally, its round count and its verdict."""

    n_rounds: int

    @property
    def sifted_fractions(self) -> tuple:
        """(key, Bell, discarded) rounds as fractions of all rounds."""
        n = self.n_rounds
        return self.n_key / n, self.n_bell / n, self.n_discarded / n


def analyze(chunks: Iterable[Rounds]) -> SessionResult:
    """Sift a session chunk by chunk, then estimate S3, the QTER and the verdict.

    ``chunks`` is an iterable of ``Rounds`` in round order; each is sifted
    once and dropped, keeping only the count tensor and the keys.
    """
    counts = np.zeros((DIM, DIM, DIM, DIM), dtype=np.int64)
    n = 0
    keys_a, keys_b = [], []
    for rounds in chunks:
        sifted = sift(rounds)
        counts += sifted.counts
        n += len(rounds)
        keys_a.append(sifted.key_a)
        keys_b.append(sifted.key_b)
    if n == 0:
        raise InsufficientDataError("no rounds")
    key_a, key_b = np.concatenate(keys_a), np.concatenate(keys_b)
    s3_hat, s3_sigma = estimate_s3(counts)
    report = security_verdict(s3_hat, s3_sigma, qter(key_a, key_b))
    return SessionResult(counts=counts, key_a=key_a, key_b=key_b, n_rounds=n, **vars(report))


def run_protocol(n_rounds: int, source: SourceConfig | None = None,
                 eve: EveConfig | None = None,
                 parties: tuple | None = None, seed: int = 0) -> SessionResult:
    """A seeded session, sampled by ``iter_session`` and analyzed chunk by
    chunk by ``analyze``."""
    source = source if source is not None else SourceConfig()
    eve = eve if eve is not None else EveConfig()
    a_cfg, b_cfg = parties if parties is not None else (PartyConfig(), PartyConfig())
    return analyze(iter_session(n_rounds, source, eve, a_cfg, b_cfg, seed))

