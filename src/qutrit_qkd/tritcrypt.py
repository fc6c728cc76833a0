"""27-symbol trit codec and the digitwise mod-3 one-time pad.

Letters A..Z plus space map to indices 0..26, written as three base-3
digits, most significant first (T=19 -> 201, space=26 -> 222).  Encryption
adds a key trit to every code trit mod 3; decryption subtracts it.  Key
reuse breaks the one-time-pad guarantee and is the caller's responsibility.
"""

from __future__ import annotations

import numpy as np

from .linalg import ValidationError
from .trits import as_trits

ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ "
TRITS_PER_CHAR = 3
# symbol -> index; the ASCII lowercase letters fold to their capitals
_INDEX = {ch: i for i, ch in enumerate(ALPHABET)} | {
    ch: i for i, ch in enumerate(ALPHABET.lower())}


def encode(text: str) -> np.ndarray:
    """Text to code groups; ASCII lowercase is folded, anything else is an error."""
    indices = []
    for ch in text:
        if ch not in _INDEX:
            raise ValidationError(f"character {ch!r} outside the 27-symbol alphabet")
        indices.append(_INDEX[ch])
    idx = np.asarray(indices, dtype=np.int8)
    groups = np.stack([idx // 9, (idx // 3) % 3, idx % 3], axis=1) if len(idx) else \
        np.zeros((0, TRITS_PER_CHAR), dtype=np.int8)
    return groups.astype(np.int8).reshape(-1)


def decode(code) -> str:
    """Inverse of :func:`encode`; every 3-trit group is a valid character."""
    trits = as_trits(code)
    if trits.size % TRITS_PER_CHAR != 0:
        raise ValidationError(
            f"code length {trits.size} is not a multiple of {TRITS_PER_CHAR}")
    groups = trits.reshape(-1, TRITS_PER_CHAR).astype(int)
    indices = groups[:, 0] * 9 + groups[:, 1] * 3 + groups[:, 2]
    return "".join(ALPHABET[i] for i in indices)


def encrypt(code, key) -> np.ndarray:
    """Digitwise (code + key) mod 3."""
    c = as_trits(code)
    k = as_trits(key)
    if c.size != k.size:
        raise ValidationError(f"code/key length mismatch: {c.size} vs {k.size}")
    return ((c + k) % 3).astype(np.int8)


def decrypt(cipher, key) -> np.ndarray:
    """Digitwise (cipher - key) mod 3; inverse of :func:`encrypt`."""
    c = as_trits(cipher)
    k = as_trits(key)
    if c.size != k.size:
        raise ValidationError(f"cipher/key length mismatch: {c.size} vs {k.size}")
    return ((c - k) % 3).astype(np.int8)
