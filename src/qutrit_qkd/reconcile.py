"""Parity-block error reduction over trit keys.

Keys are cut into blocks of three trits; both sides compare the mod-3 sum
of each block over the public channel and throw away blocks whose sums
disagree.  One trit of every surviving block is discarded to pay for the
disclosed parity, so n input blocks shrink to at most 2n/3 output trits.
The sift is single-pass: error patterns whose trits sum to 0 mod 3 slip
through, and ``ReconciliationReport.residual_mismatches`` counts the output
positions they leave unequal.  ``parity_sift`` returns the counts as a
``ReconciliationReport``; the command line renders them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError
from .trits import as_trits

BLOCK = 3


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
    # three column adds, cheaper than a sum along rows of 3; an int8 block sums to at most 6
    keep = ((blocks_a[:, 0] + blocks_a[:, 1] + blocks_a[:, 2]) % 3
            == (blocks_b[:, 0] + blocks_b[:, 1] + blocks_b[:, 2]) % 3)
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

