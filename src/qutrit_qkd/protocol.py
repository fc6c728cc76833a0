"""Two-party entanglement-based qutrit key distribution, simulated end to end.

The source emits pairs in the lab's labels, a|00> + b|12> + c|21>: the
Schmidt-diagonal form a|00> + b|11> + c|22> with B's labels 1 and 2 exchanged by
``SWAP_12``.  ``SourceConfig.mixture`` holds the Schmidt form, which ``bell`` reads
too; the relabel, known to this module alone, appears only where the lab's own
bases do: B's key analyzer, an eavesdropper's basis on arm B and B's key trits.
Each party switches between three analyzer settings: 1 and 2 probe the Bell
inequality, 3 is the key setting with perfect correlations.

An enabled intercept-resend eavesdropper is applied as an exact
post-measurement ensemble before sampling, never as an outcome heuristic.

A round is one uint8 code, 10 * (3 * (setting_a - 1) + setting_b - 1) plus
3 * outcome_a + outcome_b, or 9 if undetected, and a chunk of rounds is a 1-D
array of codes: the sampler emits it, ``sift`` counts it with one ``bincount``,
the transcript codec writes it.  A round's id is its position in the session.
The sampler draws each code from the exact law of the 90 codes, built from
the Born-rule tables, by inverting one 53-bit uniform per round.  Its top 16
bits are the round's bucket key, a quarter of a PCG64 word; only a round whose
bucket an edge of the law splits draws a word of its own for the other 37.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import bell
from .linalg import (
    DIM,
    NORM_TOL,
    MixedState,
    ValidationError,
    born_amplitudes,
    born_tables,
    computational_basis,
    diagonal_state,
    normalize_coefficients,
    orthonormality_residual,
    require_array,
    require_integer,
    require_real,
)

# Tolerable noise fraction for secure three-level key distribution
# (an imported security threshold, not derived in this package).
NOISE_BOUND_QUTRIT = 0.225

# Reference experiment statistics used by the calibrated noise profile.
REFERENCE_COEFFICIENTS = (0.642, 0.546, 0.539)
REFERENCE_S3 = 2.688
REFERENCE_QTER = 14.0 / 150.0


# The permutation exchanging labels 1 and 2, its own inverse: B's lab labels and Schmidt
# labels, the lab's a|00> + b|12> + c|21> being a|00> + b|11> + c|22> under ``psi[:, SWAP_12]``.
SWAP_12 = np.array([0, 2, 1], dtype=np.int8)
SWAP_12.setflags(write=False)


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
    key analyzers independently of the Bell channels.  ``mixture`` is the
    emitted ensemble, read by every session, ``bell`` and the optimizers: the
    Schmidt-diagonal state at weight ``visibility * (1 - background_fraction)``,
    the rest white noise, whose outcome pair is as uniform as background's.
    ``normalization_divisor`` is the norm the coefficients were divided by.
    """

    coefficients: tuple = (1.0, 1.0, 1.0)
    visibility: float = 1.0
    background_fraction: float = 0.0
    detection_efficiency: float = 1.0
    key_crosstalk: float = 0.0

    def __post_init__(self):
        unit, divisor = normalize_coefficients(self.coefficients)
        object.__setattr__(self, "normalization_divisor", divisor)
        object.__setattr__(self, "mixture", MixedState.isotropic(
            np.diag(unit).astype(complex),
            require_real("visibility", self.visibility, 0, 1)
            * (1.0 - require_real("background_fraction", self.background_fraction, 0, 1))))
        require_real("detection_efficiency", self.detection_efficiency, 0, 1, "(]")
        require_real("key_crosstalk", self.key_crosstalk, 0, 1)


@dataclass(frozen=True)
class PartyConfig:
    """A party's probabilities of choosing settings 1, 2 and 3 (key)."""

    setting_probabilities: tuple = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self):
        p = require_array("setting probabilities", self.setting_probabilities, "iuf", (DIM,))
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-12):
            raise ValidationError(
                f"setting probabilities must be 3 non-negative reals summing to 1, got {p}")


# Eve's collapse is built unchecked, so her basis must keep its states and weights
# unit to NORM_TOL: B B^dagger - I of largest entry r moves a collapsed state's
# norm^2 by at most r and the total of her outcome probabilities by at most DIM r,
# with one r more to spare for rounding.
_EVE_TOL = NORM_TOL / (DIM + 1)
_EVE_BASIS = computational_basis()


@dataclass(frozen=True, eq=False)
class EveConfig:
    """Intercept-resend adversary on one arm with a fixed measurement basis."""

    enabled: bool = False
    arm: str = "B"
    basis: np.ndarray | None = None

    def __post_init__(self):
        if self.arm not in ("A", "B"):
            raise ValidationError(f"eve arm must be 'A' or 'B', got {self.arm!r}")
        if self.basis is None:
            object.__setattr__(self, "basis", _EVE_BASIS)
            return
        basis = np.array(require_array("basis", self.basis, "biufc", (DIM, DIM)), dtype=complex)
        r = orthonormality_residual(basis)
        if not r <= _EVE_TOL:
            raise ValidationError(f"eve basis orthonormality residual {r:.3e} exceeds "
                                  f"{_EVE_TOL:.1e}, which keeps her collapse unit to {NORM_TOL}")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)


# The fixed analyzers, rows of settings 1, 2 and 3 stacked (9, 3) per party: the
# canonical phase bases, then the key basis, B's the lab's: outcome k is level SWAP_12[k].
_BELL = bell.CANONICAL_SETTINGS
_ROWS_A = np.concatenate((_BELL.a1, _BELL.a2, computational_basis()))
_ROWS_B = np.concatenate((_BELL.b1, _BELL.b2, computational_basis()[SWAP_12]))
_ROWS_A.setflags(write=False)
_ROWS_B.setflags(write=False)


# ---------------------------------------------------------------------------
# Exact state-level machinery
# ---------------------------------------------------------------------------

def post_eve_mixture(mixed: MixedState, eve: EveConfig) -> MixedState:
    """Exact ensemble after an intercept-resend measurement on one arm.

    ``mixed`` and the result are in Schmidt labels, ``eve.basis`` in the lab's, so on
    arm B its columns are relabeled by ``SWAP_12``.  Each pure component collapses into at
    most three product states, one per eavesdropper outcome, in component-then-outcome
    order; the isotropic part is invariant.  The result is separable on the intercepted
    cut.  One Born-kernel call, with identity rows on the arm Eve leaves alone, gives
    that arm's conditional amplitudes for every component and outcome.
    """
    if not eve.enabled:
        return mixed
    eye, on_b = computational_basis(), eve.arm == "B"
    basis = eve.basis[:, SWAP_12] if on_b else eve.basis
    amps = born_amplitudes(*((eye, basis) if on_b else (basis, eye)), mixed.psis)
    arm = amps.swapaxes(1, 2) if on_b else amps     # [component, outcome, level]
    p = np.sum(np.abs(arm) ** 2, axis=2)
    kept = p > 1e-15
    unit = arm[kept] / np.sqrt(p[kept])[:, None]
    post = unit[:, :, None] * basis[np.nonzero(kept)[1]][:, None, :]   # [kept, level, Eve's]
    # checked inputs: the states are unit and the weights sum to 1 (see _EVE_TOL)
    return MixedState._unchecked(post if on_b else np.ascontiguousarray(post.swapaxes(1, 2)),
                                 (mixed.weights[:, None] * p)[kept], mixed.white_noise_weight)


@dataclass(frozen=True, eq=False)
class SessionLaw:
    """One round's exact law, as read-only copies: ``tables[sa - 1, oa, sb - 1, ob]``
    given the setting pair, each party's setting probabilities, ``detection``."""

    tables: np.ndarray
    settings_a: np.ndarray
    settings_b: np.ndarray
    detection: float

    def __post_init__(self):
        for name in ("tables", "settings_a", "settings_b"):
            value = np.array(getattr(self, name), dtype=float)
            value.setflags(write=False)
            object.__setattr__(self, name, value)


def session_law(source: SourceConfig, eve: EveConfig = EveConfig(),
                a: PartyConfig = PartyConfig(), b: PartyConfig = PartyConfig()) -> SessionLaw:
    """The ``SessionLaw`` that ``iter_session`` samples and ``exact_session_s3`` reads,
    its nine tables from one Born-kernel call.  Background is white noise in
    ``source.mixture``.  Key crosstalk acts on the (3, 3) pair only, so it is no
    property of the state: it replaces a key round's outcomes with a uniform pair,
    at the probability level, so folding it into the tables is exact."""
    mixed = post_eve_mixture(source.mixture, eve)
    t = born_tables(_ROWS_A, _ROWS_B, mixed.psis, mixed.weights, mixed.white_noise_weight)
    crosstalk = source.key_crosstalk
    if crosstalk > 0.0:
        t[2, :, 2, :] = (1.0 - crosstalk) * t[2, :, 2, :] + crosstalk * (1.0 / 9.0)
    return SessionLaw(t, a.setting_probabilities, b.setting_probabilities,
                      source.detection_efficiency)


def exact_session_s3(source: SourceConfig, eve: EveConfig = EveConfig()) -> float:
    """Exact S3 implied by a session configuration (no sampling)."""
    return bell.s3_of(session_law(source, eve).tables[:2, :, :2, :])


def calibrate_noise(coefficients=REFERENCE_COEFFICIENTS,
                    target_s3: float = REFERENCE_S3,
                    target_qter: float = REFERENCE_QTER) -> tuple[float, float]:
    """Solve for (visibility, key_crosstalk) hitting target S3 and QTER.

    S3 scales linearly with visibility at fixed settings; the key error
    rate is 2/3 of the total uniform-noise weight seen by key rounds.
    Raises if the targets are outside the reachable region.
    """
    target_s3 = require_real("target_s3", target_s3, -np.inf, np.inf)
    target_qter = require_real("target_qter", target_qter, -np.inf, np.inf)
    s3_pure = bell.s3(diagonal_state(coefficients), bell.CANONICAL_SETTINGS)
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

# The fields of the 90 round codes, rows in transcript order: setting_a,
# outcome_a, setting_b, outcome_b (-1 when undetected) and detected (0 or 1).
_pair, _o = np.divmod(np.arange(90), 10)
CODE_FIELDS = np.stack((1 + _pair // 3, np.where(_o < 9, _o // 3, -1), 1 + _pair % 3,
                        np.where(_o < 9, _o % 3, -1), _o < 9)).astype(np.int8)
CODE_FIELDS.setflags(write=False)
del _pair, _o


def require_codes(code, first: int = 0) -> np.ndarray:
    """``code`` as a 1-D integer array of round codes from 0 to 89, not cast; else
    ``ValidationError``, naming a code out of range and its round index, ``first`` + row."""
    code = require_array("round codes", code, "iu", (None,))
    if code.size and (code.max() >= 90 or code.dtype.kind == "i" and code.min() < 0):
        row = int(((code < 0) | (code >= 90)).argmax())
        raise ValidationError(f"round index {first + row}: "
                              f"round code {code[row]} is not from 0 to 89")
    return code


# Rounds per sampled chunk, a multiple of 4.  A session is one PCG64 stream:
# round i's 16-bit bucket key is bits 16 (i mod 4) to 16 (i mod 4) + 15 of word
# i // 4, and chunk [lo, lo + m) takes key words lo / 4 ... ceil((lo + m) / 4) - 1,
# so the chunk size does not change the draws.  The rounds whose bucket an
# edge splits take the words after the session's ceil(n / 4) key words, one
# each, in round order.
_SESSION_CHUNK_ROWS = 1 << 16
# Buckets [b/K, (b+1)/K) of u, one per 16-bit key b, so K = _BUCKETS = 2**16.
# Only sessions of at least _BUCKET_MIN_ROUNDS rounds build the code table of
# the buckets (~30 us); shorter ones run a searchsorted on every key.  Both
# give the same codes.  At most 89 of the 65536 buckets hold an edge, so at
# most 0.14 % of the rows of a session draw a second word.
_BUCKETS = 1 << 16
_BUCKET_MIN_ROUNDS = 1 << 10


def iter_session(n_rounds: int, source: SourceConfig, eve: EveConfig,
                 a: PartyConfig, b: PartyConfig, seed: int) -> Iterator[np.ndarray]:
    """A seeded measurement session as uint8 round-code chunks of at most 65536 rounds.

    Each round's code is drawn from the exact ``session_law(source, eve, a, b)``
    by one 53-bit uniform u, inverted through the cumulative law of the 90
    codes; ``a`` and ``b`` give the setting probabilities.  The top 16 bits of
    u are the round's key, a quarter of a word of one PCG64 stream seeded by
    ``seed``, four rounds to a word; only a round whose bucket of u an edge of
    the law splits draws one more word for the low 37 bits.  Chunking does not
    change the draws: identical seeds and configurations reproduce the session
    bit for bit.  ``n_rounds`` must be a positive and ``seed`` a non-negative
    integer (numpy integers too, bools not); both are checked before any table
    is built.
    """
    return _sample_chunks(require_integer("n_rounds", n_rounds, 1),
                          require_integer("seed", seed, 0), session_law(source, eve, a, b))


def _code_edges(law: SessionLaw) -> np.ndarray:
    """The 89 interior cumulative sums of the 90 code probabilities, in code order:
    P(pair) * detection * table cell, and P(pair) * (1 - detection) for code
    10 * pair + 9.  A round's code is the number of edges <= its uniform u.  The
    edges from the last code of positive probability on are infinite, so u past
    a sum that rounds below 1 still draws that code and no zero-probability one."""
    pair = np.multiply.outer(law.settings_a, law.settings_b).ravel()
    p = np.empty((9, 10))
    p[:, :9] = (pair * law.detection)[:, None] * law.tables.transpose(0, 2, 1, 3).reshape(9, 9)
    p[:, 9] = pair * (1.0 - law.detection)
    edges = p.ravel().cumsum()[:89]
    edges[np.flatnonzero(p.ravel())[-1]:] = np.inf
    return edges


def _bucket_table(edges: np.ndarray) -> np.ndarray:
    """Code per bucket [b/K, (b+1)/K) of u, K = _BUCKETS, as an int8 table.

    Entry b is the number of edges <= b/K, which is the code of every u in the
    bucket, or -1 when an edge lies strictly inside the bucket.  K is a power of
    two, so K * edge and K * u are exact and the table holds for any edges.
    """
    k = _BUCKETS * edges
    # edge j is <= b/K from bucket ceil(K * edge j) on; the edges are sorted, so
    # code j fills the buckets from edge j - 1's first to edge j's
    first = np.full(91, _BUCKETS, dtype=np.intp)
    first[0] = 0
    first[1:90] = np.minimum(np.ceil(k), _BUCKETS)
    table = np.repeat(np.arange(90, dtype=np.int8), np.diff(first))
    inside = (k > 0) & (k < _BUCKETS) & (k != np.floor(k))
    table[k[inside].astype(np.intp)] = -1
    return table


def _keys(words: np.ndarray) -> np.ndarray:
    """The 16-bit keys of PCG64 ``words``, four per word from its low bits up,
    by value whatever the platform's byte order."""
    return words.astype("<u8", copy=False).view("<u2")


def _split_codes(edges: np.ndarray, key: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The codes of rounds whose buckets ``key`` an edge splits, one PCG64 word
    each: u = (key * 2**37 + (word >> 27)) * 2**-53, on the grid of 53-bit
    uniforms.  Summed as key / K + (word >> 27) * 2**-53, exactly: both terms
    and the sum are multiples of 2**-53 below 1."""
    return np.searchsorted(edges, key * (1.0 / _BUCKETS) + (words >> 27) * 2.0 ** -53,
                           side="right")


def _sample_chunks(n: int, seed: int, law: SessionLaw) -> Iterator[np.ndarray]:
    edges = _code_edges(law)
    rng = np.random.PCG64(seed)
    n_words = -(-n // 4)
    if n < _BUCKET_MIN_ROUNDS:
        # one chunk (_BUCKET_MIN_ROUNDS <= _SESSION_CHUNK_ROWS), no table: a
        # key's code is the number of scaled edges <= key, and its bucket is
        # split when the next one (inf past the last) is below key + 1.  The
        # keys are searched in sorted order, where each search starts from
        # the one before: with the radix sort of 16-bit keys, about half the
        # time of round order at 300 rounds.
        scaled = np.concatenate((edges, (np.inf,))) * _BUCKETS
        key = _keys(rng.random_raw(n_words))[:n]
        order = key.argsort(kind="stable")
        key = key.astype(np.float64)
        code = np.empty(n, dtype=np.intp)
        code[order] = np.searchsorted(scaled, key.take(order), side="right")
        hard = (scaled.take(code) < key + 1).nonzero()[0]
        if len(hard):                           # rng stands after the key words
            code[hard] = _split_codes(edges, key.take(hard), rng.random_raw(len(hard)))
        yield code.astype(np.uint8)
        return
    buckets = _bucket_table(edges)
    # the keys as intp, the index type of ``take``, in one buffer for the session
    index = np.empty(min(n, _SESSION_CHUNK_ROWS), dtype=np.intp)
    extra = None
    for lo in range(0, n, _SESSION_CHUNK_ROWS):
        m = min(_SESSION_CHUNK_ROWS, n - lo)
        key = index[:m]
        np.copyto(key, _keys(rng.random_raw(-(-m // 4)))[:m])
        code = buckets.take(key)
        hard = (code < 0).nonzero()[0]
        if len(hard):
            if extra is None:                   # the words after the key words
                extra = np.random.PCG64(seed).advance(n_words)
            code[hard] = _split_codes(edges, key.take(hard), extra.random_raw(len(hard)))
        yield code.view(np.uint8)


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


# Per round code: whether it is a key round (the sifting rule applied once,
# at import, to the 90 codes), and the key trits it gives A and B.  B's
# outcomes are recorded in the lab's labels; its key trits are the Schmidt labels.
_IS_KEY = Party(CODE_FIELDS[0], CODE_FIELDS[4] == 1).sift_masks(CODE_FIELDS[2])
_KEY_A = CODE_FIELDS[1]
_KEY_B = SWAP_12.take(CODE_FIELDS[3], mode="clip")
# The key codes are one run, [_KEY_LO, _KEY_LO + _KEY_WIDTH), so ``sift`` finds
# key rounds with one uint8 range compare.
_KEY_LO, _KEY_WIDTH = np.uint8(np.argmax(_IS_KEY)), np.uint8(np.count_nonzero(_IS_KEY))
if not _IS_KEY[_KEY_LO:_KEY_LO + _KEY_WIDTH].all():
    raise RuntimeError("the key round codes are not contiguous")
# Key-round outcome pairs [outcome_a, outcome_b] whose two key trits differ.
_KEY_ERRORS = (_KEY_A != _KEY_B)[_KEY_LO:_KEY_LO + _KEY_WIDTH].reshape(DIM, DIM)
# The Bell pairs in the order S3 adds their terms, and their blocks [pair, oa, ob].
_BELL_PAIRS = ((1, 1), (2, 1), (2, 2), (1, 2))
_PAIR_A, _PAIR_B = np.array(_BELL_PAIRS).T - 1
_PAIR_COEFFICIENTS = bell.S3_COEFFICIENTS.swapaxes(1, 2)[_PAIR_A, _PAIR_B]


@dataclass(frozen=True)
class Sifted:
    """A session sifted in one pass.

    ``counts[sa - 1, oa, sb - 1, ob]`` counts the detected rounds by setting
    pair and outcome pair; every round count and every statistic is read from
    it.  ``key_a`` and ``key_b`` are the key-round outcomes in round order,
    B's with outcomes 1 and 2 exchanged, carried only to the output.
    """

    counts: np.ndarray
    key_a: np.ndarray
    key_b: np.ndarray

    @property
    def n_detected(self) -> int:
        return int(self.counts.sum())

    @property
    def n_key(self) -> int:
        return int(self.counts[2, :, 2, :].sum())

    @property
    def n_bell(self) -> int:
        return int(self.counts[:2, :, :2, :].sum())

    @property
    def n_discarded(self) -> int:
        return self.n_detected - self.n_key - self.n_bell


def sift(code) -> Sifted:
    """Count tensor and both keys of an array of round codes (see
    ``Party.sift_masks``): the codes' histogram as [sa - 1, sb - 1, o],
    undetected o = 9 cut, transposed, after ``require_codes``.  Key rounds
    are the one run of codes the sifting rule keeps (80 to 88), found with
    one uint8 range compare, ``code - _KEY_LO < _KEY_WIDTH``."""
    code = require_codes(code)
    hist = np.bincount(code, minlength=90)
    counts = hist.reshape(DIM, DIM, 10)[..., :9].reshape(DIM, DIM, DIM, DIM).transpose(0, 2, 1, 3)
    # indices, not a mask: key rounds are sparse.  The difference is taken in
    # uint8 whatever the codes' integer dtype, so codes below the run wrap above it.
    is_key = np.subtract(code, _KEY_LO, dtype=np.uint8, casting="unsafe") < _KEY_WIDTH
    key = code.take(np.flatnonzero(is_key))
    return Sifted(counts=counts, key_a=_KEY_A.take(key), key_b=_KEY_B.take(key))


def _count_tensors(counts) -> np.ndarray:
    """``counts`` as floats, each checked to be a finite, non-negative integer."""
    given = require_array("counts", counts, "biuf", (..., DIM, DIM, DIM, DIM))
    c = given.astype(float)
    # an integer dtype holds whole numbers only
    ok = given >= 0 if given.dtype.kind in "iu" else (c >= 0) & (np.floor(c) == c)
    if not ok.all():
        raise ValidationError(f"count {c[~ok][0]} is not a non-negative integer")
    return c


def estimate_s3(counts):
    """Empirical S3 and its standard error from a count tensor or a stack of them.

    ``counts`` is indexed like ``Sifted.counts``, after any stack axes; two
    numpy floats for one tensor, two arrays for a stack.  Only the four Bell
    setting pairs are read.  Probabilities are per-setting-pair frequencies;
    the uncertainty treats every outcome count as an independent Poisson
    variable propagated through the Bell expression.
    """
    return _estimate_s3(_count_tensors(counts))


def _estimate_s3(c: np.ndarray):
    """``estimate_s3`` of checked float counts ``c``."""
    block = c.swapaxes(-3, -2)[..., _PAIR_A, _PAIR_B, :, :]
    total = block.sum(axis=(-2, -1), keepdims=True)         # (..., pair, 1, 1)
    if not total.all():
        first = np.argmax((total == 0).reshape(-1, 4).any(axis=0))
        raise InsufficientDataError(f"no rounds with setting pair {_BELL_PAIRS[first]}")
    term = (_PAIR_COEFFICIENTS * block).sum(axis=(-2, -1), keepdims=True) / total
    variance = (block * ((_PAIR_COEFFICIENTS - term) / total) ** 2).sum(axis=(-2, -1))
    term = term[..., 0, 0]
    # the pair terms of S3 and of its variance added in _BELL_PAIRS order, one by one
    s3 = term[..., 0] + term[..., 1] + term[..., 2] + term[..., 3]
    variance = variance[..., 0] + variance[..., 1] + variance[..., 2] + variance[..., 3]
    return s3, np.sqrt(variance)


def qter(counts):
    """Share of key rounds whose key trits differ, the error cells of the key block
    ``counts[..., 2, :, 2, :]``: a numpy float for one tensor, an array for a stack."""
    return _qter(_count_tensors(counts))


def _qter(c: np.ndarray):
    """``qter`` of checked float counts ``c``."""
    key = c[..., 2, :, 2, :]
    n = key.sum(axis=(-2, -1))
    if (n == 0).any():
        raise InsufficientDataError("cannot compute a trit error rate on empty keys")
    return key[..., _KEY_ERRORS].sum(axis=-1) / n


@dataclass(frozen=True)
class SecurityReport:
    secure: bool
    s3_estimate: float
    s3_sigma: float
    sigmas_above_classical: float
    qter: float


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


def analyze(chunks: Iterable[np.ndarray]) -> SessionResult:
    """Sift a session chunk by chunk, then estimate S3, the QTER and the verdict.

    ``chunks`` is an iterable of round-code arrays in round order; each is
    sifted once and dropped, keeping only the count tensor and the keys.
    """
    counts = np.zeros((DIM, DIM, DIM, DIM), dtype=np.int64)
    n = 0
    keys_a, keys_b = [], []
    for code in chunks:
        sifted = sift(code)
        counts += sifted.counts
        n += len(code)
        keys_a.append(sifted.key_a)
        keys_b.append(sifted.key_b)
    if n == 0:
        raise InsufficientDataError("no rounds")
    c = _count_tensors(counts)
    report = security_verdict(*_estimate_s3(c), _qter(c))
    return SessionResult(counts=counts, key_a=np.concatenate(keys_a),
                         key_b=np.concatenate(keys_b), n_rounds=n, **vars(report))


def run_protocol(n_rounds: int, source: SourceConfig = SourceConfig(), eve: EveConfig = EveConfig(),
                 parties: tuple = (PartyConfig(), PartyConfig()), seed: int = 0) -> SessionResult:
    """A seeded session, sampled by ``iter_session`` and analyzed chunk by chunk."""
    return analyze(iter_session(n_rounds, source, eve, *parties, seed))

