"""Parity-block error reduction over trit keys.

Keys are cut into blocks of three trits; both sides compare the mod-3 sum
of each block over the public channel and throw away blocks whose sums
disagree.  One trit of every surviving block is discarded to pay for the
disclosed parity, so n input blocks shrink to at most 2n/3 output trits.
The sift is single-pass: error patterns whose trits sum to 0 mod 3 slip
through, which ``residual_error_rate`` quantifies.  ``parity_sift`` returns
the counts as a ``ReconciliationReport``; the command line renders them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError
from .trits import as_trits

BLOCK = 3
# the 9 error patterns of 27 that keep a block: any first two trits, and a
# third that cancels their sum mod 3
_KEPT_PATTERNS = np.array([(i, j, -(i + j) % 3) for i in range(3) for j in range(3)])


@dataclass(frozen=True)
class ReconciliationReport:
    kept_blocks: int
    discarded_blocks: int
    output_length: int
    residual_mismatches: int       # simulation-only diagnostic
    dropped_trailing: int = 0


def parity_sift(key_a, key_b) -> tuple[np.ndarray, np.ndarray, ReconciliationReport]:
    """Keep blocks with matching parities; emit their first two trits.

    Inputs must have equal length; trailing trits beyond a multiple of
    three are dropped and counted in the report.
    """
    a = as_trits(key_a)
    b = as_trits(key_b)
    if a.size != b.size:
        raise ValidationError(f"key length mismatch: {a.size} vs {b.size}")
    dropped = int(a.size % BLOCK)
    usable = a.size - dropped
    blocks_a = a[:usable].reshape(-1, BLOCK)
    blocks_b = b[:usable].reshape(-1, BLOCK)
    keep = (blocks_a.sum(axis=1) % 3) == (blocks_b.sum(axis=1) % 3)
    out_a = blocks_a[keep][:, :2].reshape(-1)
    out_b = blocks_b[keep][:, :2].reshape(-1)
    report = ReconciliationReport(
        kept_blocks=int(keep.sum()),
        discarded_blocks=int((~keep).sum()),
        output_length=int(out_a.size),
        residual_mismatches=int(np.count_nonzero(out_a != out_b)),
        dropped_trailing=dropped,
    )
    return out_a, out_b, report


def residual_error_rate(error_rate: float) -> float:
    """Exact post-sift mismatch fraction under independent trit errors.

    Each of B's trits differs from A's with probability ``error_rate``,
    uniformly over the two wrong values.  A block survives the sift iff its
    error pattern sums to 0 mod 3; the kept patterns always include (0, 0, 0)
    or (1, 1, 1), so some weight survives at every rate.  Returns the
    expected fraction of output positions that still mismatch.
    """
    if not 0.0 <= error_rate <= 1.0:
        raise ValidationError(f"error_rate {error_rate} outside [0, 1]")
    p = np.array([1.0 - error_rate, error_rate / 2.0, error_rate / 2.0])
    weight = p[_KEPT_PATTERNS].prod(axis=1)
    mismatches = np.count_nonzero(_KEPT_PATTERNS[:, :2], axis=1)  # in the output trits
    return float(weight @ mismatches / (2.0 * weight.sum()))
