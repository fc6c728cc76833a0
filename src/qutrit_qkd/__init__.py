"""Entanglement-based quantum key distribution with three-level systems.

Modules
-------
linalg     qutrit-pair states, measurement bases, Born-rule probabilities
bell       the three-dimensional Bell parameter S3 and settings optimization
protocol   seeded two-party protocol sessions, sifting, estimation, verdicts
reconcile  parity-block error reduction over trit keys
tritcrypt  27-symbol codec and the digitwise mod-3 one-time pad
cli        command-line front end (``qutrit-qkd``)
"""

from .bell import (
    CANONICAL_OFFSETS,
    CLASSICAL_BOUND,
    NONMAX_QUANTUM_MAX,
    QUANTUM_MAX,
    BellValue,
    SettingsPair,
    canonical_settings,
    coincidence_mod3,
    correlation_profile,
    optimize_gamma_family,
    optimize_s3,
    outcome_distribution,
    s3,
    s3_vs_visibility,
)
from .linalg import (
    InvalidStateError,
    MixedState,
    ValidationError,
    born_tables,
    computational_basis,
    diagonal_state,
    make_state,
    maximally_entangled_state,
    phase_basis,
    relabel_b_swap12,
)
from .protocol import (
    NOISE_BOUND_QUTRIT,
    EveConfig,
    InsufficientDataError,
    PartyConfig,
    Rounds,
    SecurityReport,
    SessionResult,
    Sifted,
    SourceConfig,
    analyze,
    calibrate_noise,
    default_parties,
    estimate_s3,
    iter_session,
    qter,
    run_protocol,
    run_session,
    security_verdict,
    sift,
)
from .reconcile import ReconciliationReport, block_parity, parity_sift, residual_error_rate
from .tritcrypt import decode, decrypt, encode, encrypt

__version__ = "0.1.0"
