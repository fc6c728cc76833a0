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
before.  Both directions work chunk by chunk and see a run of lines of one
length as fixed-width records of whole fields, stored or looked up as
little-endian integers: the writer renders each session chunk as arrays of
such records, and the reader reads each block of the writer's layout as
such records too, after splitting off the '#' lines the block starts with
(the header).  Those lines and any other block go through the general
grammar of ``_parse_lines``, which alone words the error messages.
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
# character -> field value: '-' reads as -1, and any non-field character as 10
_CHAR_VALUE = np.full(256, 10, dtype=np.int8)
_CHAR_VALUE[ord("0"):ord("9") + 1] = np.arange(10)
_CHAR_VALUE[_DASH] = -1

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
# The same rows as little-endian integers, which the writer's records store
# whole: four digits as a uint32, a tail as a uint64 of its bytes 0-7 and a
# uint32 of its bytes 7-10.
_DIGITS4_U32 = _DIGITS4.view("<u4")[:, 0]
_TAIL_HEAD = np.ascontiguousarray(_TAILS[:, :8]).view("<u8")[:, 0]
_TAIL_END = np.ascontiguousarray(_TAILS[:, 7:]).view("<u4")[:, 0]
# Two bytes read as a little-endian uint16 -> what the reader makes of them:
# ' ' and a character -> the field value of the character (10 after any
# other first byte); two digits -> their two-digit value (-1 for any other pair).
_FIELD_VALUE = np.full(1 << 16, 10, dtype=np.int8)
_FIELD_VALUE[ord(" ") + 256 * np.arange(256)] = _CHAR_VALUE
_d = np.arange(10)
_DIGIT_PAIR = np.full(1 << 16, -1, dtype=np.int16)
_DIGIT_PAIR[48 + _d[:, None] + 256 * (48 + _d)] = 10 * _d[:, None] + _d
del _pair, _outcomes, _seen, _d

_WRITE_SLICE_ROWS = 1 << 13         # rows per record array: its temporaries stay small

_FAULTS = (
    f"round_id {{0!r}} is not a non-negative integer of at most {_MAX_ID_DIGITS} digits",
    "setting_a {1!r} is not 1, 2 or 3",
    "setting_b {3!r} is not 1, 2 or 3",
    "detected {5!r} is not 0 or 1",
    "outcome_a {2!r} must be {want} when detected is {5}",
    "outcome_b {4!r} must be {want} when detected is {5}",
    "round_id {0} does not exceed the previous round_id {prev}",
)


def _faults(ids, id_ok, prev_id, values) -> np.ndarray:
    """(7, rows) flags, one row per entry of ``_FAULTS``.

    ``values`` holds each row's single-character fields (setting_a,
    outcome_a, setting_b, outcome_b, detected) as five 8-bit arrays of
    ``_CHAR_VALUE`` values; read as uint8, '-' is 255 and the differences
    below wrap around.
    """
    sa, oa, sb, ob, det = (v.view(np.uint8) for v in values)
    seen, unseen = det == 1, det == 0
    return np.stack((
        ~id_ok,
        sa - 1 > 2,
        sb - 1 > 2,
        ~(seen | unseen),
        seen & (oa > 2) | unseen & (oa != 255),
        seen & (ob > 2) | unseen & (ob != 255),
        ids <= np.concatenate(([prev_id], ids[:-1])),
    ))


def _first_fault(ids, id_ok, prev_id, values, fields_of):
    """(row, message) for the first row breaking the transcript grammar, or None.

    ``fields_of`` renders one row's six fields as text for the message.
    """
    faults = _faults(ids, id_ok, prev_id, values)
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


def _record(width: int) -> np.dtype:
    """The writer's line for a ``width``-digit id as a record of whole fields.

    'd0', 'd1', ... are the id's digit groups, four digits each counted from
    the right, as ``_DIGITS4_U32`` rows; 'head' and 'end' are the tail as
    ``_TAIL_HEAD`` and ``_TAIL_END`` rows.  Fields are filled in this order,
    and each overwrites what the one before spills into it: 'd0' holds its
    1 to 4 digits in its low bytes, and 'head' and 'end' share the tail's
    byte 7.
    """
    starts = [0, *range((width - 1) % 4 + 1, width, 4)]
    return np.dtype({
        "names": [f"d{i}" for i in range(len(starts))] + ["head", "end"],
        "formats": ["<u4"] * len(starts) + ["<u8", "<u4"],
        "offsets": starts + [width, width + 7],
        "itemsize": width + 11,
    })


def _write_rows(fh, ids: np.ndarray, tail: np.ndarray) -> None:
    """Write valid rows: increasing ids, and each row's ``_TAILS`` index.

    Rows of one id width are contiguous; each such run is written as
    arrays of ``_record(width)``, at most ``_WRITE_SLICE_ROWS`` at a time.
    """
    tail = tail.astype(np.intp)         # the index type of ``take``, cast once
    lo = 0
    while lo < len(ids):
        width = len(str(ids[lo]))
        hi = min(int(np.searchsorted(ids, 10 ** width)), lo + _WRITE_SLICE_ROWS)
        rows = np.empty(hi - lo, dtype=_record(width))
        groups, rest = [], ids[lo:hi]
        for _ in range((width - 1) // 4):
            high = rest // 10_000
            groups.append(rest - 10_000 * high)
            rest = high
        rows["d0"] = _DIGITS4_U32.take(rest) >> 8 * (3 - (width - 1) % 4)
        for i, group in enumerate(reversed(groups), start=1):
            rows[f"d{i}"] = _DIGITS4_U32.take(group)
        rows["head"] = _TAIL_HEAD.take(tail[lo:hi])
        rows["end"] = _TAIL_END.take(tail[lo:hi])
        fh.write(rows)
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
                    # undetected outcomes are written as '-', which reads as 255
                    values = (sa, np.where(det, oa, 255), sb, np.where(det, ob, 255),
                              det.view(np.uint8))
                    row, message = _first_fault(
                        ids, (ids >= 0) & (ids < _ID_LIMIT), prev_id, values,
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
    # a field longer than one character reads as character 0, no field value
    chars = np.where(size[1:] == 1, buf[starts[field[1:]]], np.uint8(0))
    values = [_CHAR_VALUE.take(c) for c in chars]

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
    fault = _first_fault(ids, id_ok, prev_id, values, lambda row: tuple(
        data[starts[f]:ends[f]].decode(errors="replace") for f in field[:, row]))
    if fault is not None:
        row, message = fault
        errors.append((rows[row], message))
    if errors:
        at, message = min(errors)
        raise ValidationError(f"{path}:{line0 + at + 1}: {message}")

    return _columns(ids, values), len(newlines)


def _columns(ids, values) -> tuple:
    sa, oa, sb, ob, det = values
    return ids, sa, oa, sb, ob, det.astype(bool)


def _parse_fixed(data: bytes, prev_id: int):
    """What ``_parse_lines`` returns for ``data`` if every line is in the
    writer's layout and every round is valid; None otherwise.

    Line lengths must not decrease, and each run of equal-length lines is
    read as records of that length: a newline at the end, the id's digits
    in pairs (an odd one first, alone) and each field after its space, as
    ``_DIGIT_PAIR`` and ``_FIELD_VALUE`` keys.  So every byte is checked.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    runs, at, size = [], 0, 11                  # (first byte, line length, lines)
    while at < len(buf):
        longer = data.index(b"\n", at) + 1 - at
        if not size < longer <= _MAX_ID_DIGITS + 11:
            return None
        size = longer
        ends = buf[at + size - 1::size] == ord("\n")    # last byte of each whole line
        lines = int(ends.argmin()) or len(ends)          # ends[0] holds: 0 means all do
        runs.append((at, size, lines))
        at += size * lines

    n = sum(lines for _, _, lines in runs)
    ids = np.empty(n, dtype=np.int64)
    values = [np.empty(n, dtype=np.int8) for _ in range(5)]
    lo = 0
    for at, size, lines in runs:
        width, hi = size - 11, lo + lines

        def keys(offset, dtype="<u2"):
            return np.ndarray(lines, dtype, buf, at + offset, (size,))

        run_ids = ids[lo:hi]
        run_ids[:] = 0
        if width % 2:
            lead = _CHAR_VALUE.take(keys(0, "u1"))
            if (lead.view(np.uint8) > 9).any():
                return None
            run_ids += lead
        for offset in range(width % 2, width, 2):
            pair = _DIGIT_PAIR.take(keys(offset))
            if (pair < 0).any():
                return None
            run_ids *= 100
            run_ids += pair
        for value, offset in zip(values, range(width, size - 1, 2)):
            value[lo:hi] = _FIELD_VALUE.take(keys(offset))
        lo = hi
    if _faults(ids, np.ones(n, dtype=bool), prev_id, values).any():
        return None
    return _columns(ids, values), n


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
