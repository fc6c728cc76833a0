"""Transcript files: the public record of a session's rounds, written and read.

One round per line: round_id setting_a outcome_a setting_b outcome_b detected.
  round_id    decimal digits (at most 18), strictly increasing down the file
  setting_*   1, 2 or 3
  detected    0 or 1
  outcome_*   0, 1 or 2 when detected is 1, '-' when detected is 0
Fields are separated by runs of spaces, tabs, CR, VT or FF.  Blank lines and
lines whose first field starts with '#' are skipped; '# key = value' lines
anywhere form the header.

The writer's layout is the id's digits, then ``" c c c c c"`` and a newline:
single spaces, lines 11 to 28 bytes long and never shorter than the line
before.  Both directions work chunk by chunk: the writer renders each session
chunk as fixed-width tables, one per id width, and the reader reads each block
of the writer's layout as such tables too, after splitting off the '#' lines
the block starts with (the header).  Those lines and any other block go
through the general grammar of ``_parse_lines``, which alone words the error
messages.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .linalg import ValidationError
from .protocol import Rounds

_READ_BLOCK_BYTES = 1 << 18
_MAX_ID_DIGITS = 18                 # every such id fits in an int64
_ID_LIMIT = 10 ** _MAX_ID_DIGITS
_DASH = ord("-")

_IS_SOLID = np.ones(256, dtype=bool)
_IS_SOLID[list(b" \t\r\v\f\n")] = False
# character -> field value ('-' reads as -1)
_CHAR_VALUE = np.full(256, -1, dtype=np.int8)
_CHAR_VALUE[ord("0"):ord("9") + 1] = np.arange(10)

# The writer's 11-byte line tails " sa oa sb ob det\n", row
# 10 * (3 * (sa - 1) + (sb - 1)) + (3 * oa + ob, or 9 for an undetected round).
_pair, _outcomes = np.divmod(np.arange(90), 10)
_seen = _outcomes < 9
_TAILS = np.full((90, 11), ord(" "), dtype=np.uint8)
_TAILS[:, 10] = ord("\n")
_TAILS[:, 1:10:2] = np.stack((
    49 + _pair // 3,
    np.where(_seen, 48 + _outcomes // 3, _DASH),
    49 + _pair % 3,
    np.where(_seen, 48 + _outcomes % 3, _DASH),
    48 + _seen,
), axis=1)
# row k: the four decimal digits of k, zero-padded (int16 keeps the build small)
_DIGITS4 = (48 + np.arange(10_000, dtype=np.int16)[:, None]
            // np.array([1000, 100, 10, 1], dtype=np.int16) % 10).astype(np.uint8)
del _pair, _outcomes, _seen

_FAULTS = (
    f"round_id {{0!r}} is not a non-negative integer of at most {_MAX_ID_DIGITS} digits",
    "setting_a {1!r} is not 1, 2 or 3",
    "setting_b {3!r} is not 1, 2 or 3",
    "detected {5!r} is not 0 or 1",
    "outcome_a {2!r} must be {want} when detected is {5}",
    "outcome_b {4!r} must be {want} when detected is {5}",
    "round_id {0} does not exceed the previous round_id {prev}",
)


def _faults(ids, id_ok, prev_id, chars) -> np.ndarray:
    """(7, rows) flags, one row per entry of ``_FAULTS``.

    ``chars`` stacks each row's single-character fields (setting_a,
    outcome_a, setting_b, outcome_b, detected) as uint8 rows; the
    differences below wrap around in uint8.
    """
    sa, oa, sb, ob, det = chars
    seen, unseen = det == ord("1"), det == ord("0")
    return np.stack((
        ~id_ok,
        sa - ord("1") > 2,
        sb - ord("1") > 2,
        ~(seen | unseen),
        seen & (oa - ord("0") > 2) | unseen & (oa != _DASH),
        seen & (ob - ord("0") > 2) | unseen & (ob != _DASH),
        ids <= np.concatenate(([prev_id], ids[:-1])),
    ))


def _first_fault(ids, id_ok, prev_id, chars, fields_of):
    """(row, message) for the first row breaking the transcript grammar, or None.

    ``fields_of`` renders one row's six fields as text for the message.
    """
    faults = _faults(ids, id_ok, prev_id, chars)
    bad = faults.any(axis=0)
    if not bad.any():
        return None
    row = int(bad.argmax())
    fields = fields_of(row)
    message = _FAULTS[int(faults[:, row].argmax())].format(
        *fields, want="0, 1 or 2" if fields[5] == "1" else "'-'",
        prev=ids[row - 1] if row else prev_id)
    return row, message


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def _codes(values: np.ndarray) -> np.ndarray:
    """A settings or outcomes column as uint8: 0..9 as themselves, others above 9."""
    if values.dtype in (np.int8, np.uint8):
        return values.view(np.uint8)
    return np.where((values >= 0) & (values <= 9), values, 255).astype(np.uint8)


def _round_fields(rounds: Rounds, i: int) -> tuple:
    det = bool(rounds.detected[i])
    return (str(rounds.round_id[i]), str(rounds.setting_a[i]),
            str(rounds.outcome_a[i]) if det else "-", str(rounds.setting_b[i]),
            str(rounds.outcome_b[i]) if det else "-", str(int(det)))


def _write_rows(fh, ids: np.ndarray, tail: np.ndarray) -> None:
    """Write valid rows: increasing ids, and each row's ``_TAILS`` index.

    Rows of one id width are contiguous; each such run is one
    ``(rows, width + 11)`` table, filled column by column (a strided
    column copy costs a fraction of a row-by-row one), its digits four at
    a time.
    """
    lo = 0
    for width in range(len(str(ids[0])), len(str(ids[-1])) + 1):
        hi = int(np.searchsorted(ids, 10 ** width))
        table = np.empty((hi - lo, width + 11), dtype=np.uint8)
        tails = _TAILS.take(tail[lo:hi], axis=0)
        for k in range(11):
            table[:, width + k] = tails[:, k]
        rest, end = ids[lo:hi], width
        while end > 0:
            high = rest // 10_000
            digits = _DIGITS4.take(rest - 10_000 * high, axis=0)
            for k in range(max(end - 4, 0), end):
                table[:, k] = digits[:, k + 4 - end]
            rest, end = high, end - 4
        fh.write(table)
        lo = hi


def transcribe(path, chunks: Iterable[Rounds],
               header: dict | None = None) -> Iterator[Rounds]:
    """Write a session to a transcript file as its chunks pass through.

    Yields each ``Rounds`` chunk once its lines are written, so a session
    can be written and analyzed in one pass; the file is complete when the
    iteration ends.  Header lines are '# key = value'.  Rounds that the
    reader would reject raise ValidationError naming the round's index in
    the session; the lines of earlier chunks are already written by then.
    """
    with open(path, "wb") as fh:
        fh.write("".join(f"# {key} = {value}\n"
                         for key, value in (header or {}).items()).encode())
        prev_id, base = -1, 0
        for rounds in chunks:
            if len(rounds):
                ids = rounds.round_id.astype(np.int64, copy=False)
                det = rounds.detected.astype(bool, copy=False)
                sa, oa, sb, ob = (_codes(c) for c in (rounds.setting_a, rounds.outcome_a,
                                                      rounds.setting_b, rounds.outcome_b))
                # uint8: a setting of 0 wraps to 255
                valid = (sa - 1 < 3) & (sb - 1 < 3) & (~det | (oa < 3) & (ob < 3))
                if not (valid.all() and prev_id < ids[0] and ids[-1] < _ID_LIMIT
                        and (ids[1:] > ids[:-1]).all()):
                    # a code above 9 plus 48 is no character of a valid field
                    chars = np.stack((sa + 48, np.where(det, oa + 48, _DASH), sb + 48,
                                      np.where(det, ob + 48, _DASH), det + np.uint8(48)))
                    row, message = _first_fault(
                        ids, (ids >= 0) & (ids < _ID_LIMIT), prev_id, chars,
                        lambda row: _round_fields(rounds, row))
                    raise ValidationError(f"{path}: round index {base + row}: {message}")
                tail = 3 * oa + ob              # uint8; undetected rounds wrap, then get 9
                tail[~det] = 9
                tail += 30 * sa + 10 * sb - 40
                _write_rows(fh, ids, tail)
                prev_id = ids[-1]
            base += len(rounds)
            yield rounds


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

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

    return _columns(ids, chars), len(newlines)


def _columns(ids, chars) -> tuple:
    sa, oa, sb, ob, det = (_CHAR_VALUE.take(c) for c in chars)   # one array each
    return ids, sa, oa, sb, ob, det.astype(bool)


def _parse_fixed(data: bytes, prev_id: int):
    """What ``_parse_lines`` returns for ``data`` if every line is in the
    writer's layout and every round is valid; None otherwise.

    Each run of equal-length lines is read as one ``(rows, length)`` table.
    The layout check covers the id digits and the single spaces; a
    whitespace field character fails the grammar check that follows.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == 10)
    sizes = np.diff(newlines, prepend=-1)           # line lengths with the newline
    steps = np.diff(sizes)
    if sizes[0] < 12 or sizes[-1] > _MAX_ID_DIGITS + 11 or (steps < 0).any():
        return None
    n = len(newlines)
    ids = np.empty(n, dtype=np.int64)
    chars = np.empty((5, n), dtype=np.uint8)
    edges = [0, *(np.flatnonzero(steps) + 1).tolist(), n]
    at = 0
    for lo, hi in zip(edges, edges[1:]):
        size = int(sizes[lo])
        width = size - 11
        table = buf[at:at + (hi - lo) * size].reshape(hi - lo, size)
        at += (hi - lo) * size
        digits = table[:, :width]
        if (table[:, width:size - 1:2] != ord(" ")).any() or (digits - ord("0") > 9).any():
            return None
        value = np.zeros(hi - lo, dtype=np.int64)
        for k in range(width):
            value *= 10
            value += digits[:, k]
        # every digit byte carries ord("0"); 10**width // 9 is width ones
        ids[lo:hi] = value - ord("0") * (10 ** width // 9)
        chars[:, lo:hi] = table[:, width + 1:size:2].T
    if _faults(ids, np.ones(n, dtype=bool), prev_id, chars).any():
        return None
    return _columns(ids, chars), n


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
            # leading '#' lines (the header, in the first block) go alone
            # to the general grammar, so the rows after them can take the
            # fixed path
            cut = 0
            while data.startswith(b"#", cut):
                cut = data.index(b"\n", cut) + 1
            if cut:
                line0 += _parse_lines(data[:cut], path, line0, prev_id, header)[1]
                data = data[cut:]
            if data:
                cols, n_lines = (_parse_fixed(data, prev_id)
                                 or _parse_lines(data, path, line0, prev_id, header))
                line0 += n_lines
                if len(cols[0]):
                    prev_id = cols[0][-1]
                    yield Rounds(*cols)
            if not block:
                break
