"""Trit-string plumbing shared by the codec, reconciliation and the CLI."""

from __future__ import annotations

import numpy as np

from .linalg import ValidationError, require_array


def as_trits(values) -> np.ndarray:
    """Coerce a digit string or a 1-D integer sequence (``[]`` too) to an int8 trit array."""
    if isinstance(values, str):
        values = _digits(values.encode())
    elif isinstance(values, (list, tuple)) and not values:
        values = np.zeros(0, dtype=np.int8)         # numpy reads [] as float64
    arr = require_array("trits", values, "iu", (None,))
    # checked in the input's own dtype: an int8 cast first would wrap 257 to 1
    if arr.size and (arr.min() < 0 or arr.max() > 2):
        bad = arr[(arr < 0) | (arr > 2)][0]
        raise ValidationError(f"trit value {bad} outside {{0, 1, 2}}")
    return arr.astype(np.int8)


def _digits(data: bytes, where: str = "") -> np.ndarray:
    """Trit values of the UTF-8 bytes ``data``; the first character that is
    not 0, 1 or 2 is named as typed, after ``where``."""
    digits = np.frombuffer(data, dtype=np.uint8) - np.uint8(48)
    bad = digits > 2
    if bad.any():
        at = int(bad.argmax())
        ch = data[at:at + 4].decode(errors="replace")[0]
        raise ValidationError(f"{where}invalid trit character {ch!r}")
    return digits


def parse_trits(text: str) -> np.ndarray:
    """Parse a trit stream, ignoring whitespace between groups."""
    return as_trits("".join(text.split()))


def format_trits(trits, group: int = 0) -> str:
    """Render trits as digits, optionally space-separated in fixed groups."""
    digits = (as_trits(trits) + 48).astype(np.uint8).tobytes().decode()
    if group <= 0:
        return digits
    return " ".join(digits[i:i + group] for i in range(0, len(digits), group))


def read_key_file(path) -> np.ndarray:
    """Read a key file: contiguous trit digits, '#' comment lines allowed."""
    parts = [np.zeros(0, dtype=np.uint8)]
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(b"#"):
                continue
            parts.append(_digits(b"".join(line.split()), f"{path}:{lineno}: "))
    return np.concatenate(parts).astype(np.int8)


def write_key_file(path, trits, comments=()) -> None:
    with open(path, "w") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(format_trits(trits) + "\n")
