"""Parity-block error reduction over trit keys.

Keys are cut into blocks of three trits; both sides compare the mod-3 sum
of each block over the public channel and throw away blocks whose sums
disagree.  One trit of every surviving block is discarded to pay for the
disclosed parity, so n input blocks shrink to at most 2n/3 output trits.
The sift is single-pass: error patterns whose trits sum to 0 mod 3 slip
through, which ``residual_error_rate`` quantifies.
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

    def lines(self) -> list[str]:
        out = [
            f"kept blocks          {self.kept_blocks}",
            f"discarded blocks     {self.discarded_blocks}",
            f"output length        {self.output_length}",
            f"residual mismatches  {self.residual_mismatches}",
        ]
        if self.dropped_trailing:
            out.append(f"dropped trailing     {self.dropped_trailing}")
        return out


def block_parity(block) -> int:
    """Mod-3 sum of a block of exactly three trits."""
    b = as_trits(block)
    if b.size != BLOCK:
        raise ValidationError(f"parity blocks hold exactly {BLOCK} trits, got {b.size}")
    return int(b.sum() % 3)


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


def residual_error_rate(error_rate: float, trials: int, seed: int) -> float:
    """Monte-Carlo post-sift mismatch fraction under independent trit errors.

    Each of B's trits differs from A's with probability ``error_rate``,
    uniformly over the two wrong values.  Returns the fraction of output
    positions that still mismatch after the parity sift (0 if nothing
    survives).
    """
    if not 0.0 <= error_rate <= 1.0:
        raise ValidationError(f"error_rate {error_rate} outside [0, 1]")
    if trials <= 0:
        raise ValidationError(f"trials must be positive, got {trials}")
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 3, size=(trials, BLOCK), dtype=np.int8)
    flips = rng.random((trials, BLOCK)) < error_rate
    shift = rng.integers(1, 3, size=(trials, BLOCK), dtype=np.int8)
    b = (a + shift * flips) % 3
    keep = (a.sum(axis=1) % 3) == (b.sum(axis=1) % 3)
    if not keep.any():
        return 0.0
    mismatches = np.count_nonzero(a[keep][:, :2] != b[keep][:, :2])
    return float(mismatches / (2 * int(keep.sum())))
