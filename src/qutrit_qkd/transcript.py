"""Transcript files: the public record of a session's rounds, written and read.

One round per line: round_id setting_a outcome_a setting_b outcome_b detected.
  round_id    decimal digits (at most 18), strictly increasing down the file
  setting_*   1, 2 or 3
  detected    0 or 1
  outcome_*   0, 1 or 2 when detected is 1, '-' when detected is 0
Fields are separated by runs of spaces, tabs, CR, VT or FF.  Blank lines and
lines whose first field starts with '#' are skipped; '# key = value' lines
anywhere form the header, each key at most once.

A round is its ``protocol`` round code, and a chunk of rounds an array of
codes: the writer renders row ``code`` of its 90 line tails, and the reader
turns each row's validated fields back into that code.  The writer numbers
the rounds by their positions in the session, 0 to n - 1; the reader accepts
any ids the grammar allows.  The writer's layout is the id's digits, then
``" c c c c c"`` and a newline, stated once by ``_record`` and ``_render``:
each span of consecutive ids becomes an array of fixed-width records.  The reader
takes a block the fast way only if it equals, byte for byte, what
``_render`` gives for consecutive ids from the block's first id and the
codes read from the line tails, after splitting off the '#' lines the block
starts with (the header).  Those lines and any other block, such as one
whose ids have gaps, go through the general grammar of ``_parse_lines``,
which alone words the error messages.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cache

import numpy as np

from .linalg import ValidationError
from .protocol import CODE_FIELDS, require_codes

_READ_BLOCK_BYTES = 1 << 18
_MAX_ID_DIGITS = 18                 # every such id fits in an int64
_DASH = ord("-")

_IS_SOLID = np.ones(256, dtype=bool)
_IS_SOLID[list(b" \t\r\v\f\n")] = False
# character -> field value: '-' reads as 255, and any non-field character as 10
_CHAR_VALUE = np.full(256, 10, dtype=np.uint8)
_CHAR_VALUE[ord("0"):ord("9") + 1] = np.arange(10)
_CHAR_VALUE[_DASH] = 255

# The writer's 11-byte line tails " sa oa sb ob det\n", one per round code.
_TAILS = np.full((90, 11), ord(" "), dtype=np.uint8)
_TAILS[:, 10] = ord("\n")
_TAILS[:, 1:10:2] = np.where(CODE_FIELDS >= 0, 48 + CODE_FIELDS, _DASH).T
# row k: the four decimal digits of k, zero-padded (int16 keeps the build small)
_DIGITS4 = (48 + np.arange(10_000, dtype=np.int16)[:, None]
            // np.array([1000, 100, 10, 1], dtype=np.int16) % 10).astype(np.uint8)
# The same rows as little-endian integers, which the writer's records store
# whole: four digits as a uint32, a tail as a uint64 of its bytes 0-7 (its
# head) and a uint32 of its bytes 7-10.
_DIGITS4_U32 = _DIGITS4.view("<u4")[:, 0]
_TAIL_HEAD = np.ascontiguousarray(_TAILS[:, :8]).view("<u8")[:, 0]
_TAIL_END = np.ascontiguousarray(_TAILS[:, 7:]).view("<u4")[:, 0]
# The top byte of head * _TAIL_HASH differs between the 90 heads, so it
# indexes a table of their codes (int64, as ``take`` indexes).  The reader
# renders the codes it reads and compares, so a hash that merged two heads
# would only send the writer's own blocks to the general grammar: the check
# below guards speed, not results.
_TAIL_HASH = np.uint64(0xB1EDF681CAB21531)
_slots = (_TAIL_HEAD * _TAIL_HASH) >> 56
if len(set(_slots.tolist())) != 90:
    raise RuntimeError("_TAIL_HASH does not separate the 90 line tails")
_HEAD_CODE = np.zeros(256, dtype=np.int64)
_HEAD_CODE[_slots] = np.arange(90)
del _slots

_FAULTS = (
    f"round_id {{0!r}} is not a non-negative integer of at most {_MAX_ID_DIGITS} digits",
    "setting_a {1!r} is not 1, 2 or 3",
    "setting_b {3!r} is not 1, 2 or 3",
    "detected {5!r} is not 0 or 1",
    "outcome_a {2!r} must be {want} when detected is {5}",
    "outcome_b {4!r} must be {want} when detected is {5}",
    "round_id {0} does not exceed the previous round_id {prev}",
)


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

@cache                 # one dtype per width, built once
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


def _spans(first: int, n: int) -> Iterator[tuple[int, int, int]]:
    """(first id, id width, ids) of each span of the ids ``first`` to
    ``first + n - 1``: they are cut where the width changes and at each
    multiple of 10 000, so a span's last four digits count up one by one
    and its higher digits are the same on every line."""
    start, stop = first, first + n
    while start < stop:
        width = len(str(start))
        end = min(stop, 10 ** width, start - start % 10_000 + 10_000)
        yield start, width, end - start
        start = end


def _render(first: int, code: np.ndarray) -> Iterator[np.ndarray]:
    """The writer's lines for the ids ``first``, ``first + 1``, ... and the
    valid round codes ``code`` (intp, the index type of ``take``).

    Yields each span of ``_spans`` as one array of ``_record(width)``, whose
    last digit group is a slice of ``_DIGITS4_U32`` and whose higher groups
    are constants.
    """
    for start, width, rows in _spans(first, len(code)):
        records = np.empty(rows, dtype=_record(width))
        low = start % 10_000
        # constants as arrays too: a strided field is filled faster from an array
        groups = [np.full(rows, _DIGITS4_U32[start // 10_000 ** k % 10_000])
                  for k in range((width - 1) // 4, 0, -1)] + [_DIGITS4_U32[low:low + rows]]
        groups[0] = groups[0] >> 8 * (3 - (width - 1) % 4)
        for i, group in enumerate(groups):
            records[f"d{i}"] = group
        lo = start - first
        records["head"] = _TAIL_HEAD.take(code[lo:lo + rows])
        records["end"] = _TAIL_END.take(code[lo:lo + rows])
        yield records


def _write_rows(fh, first: int, code: np.ndarray) -> None:
    """Write valid rows with the ids ``first``, ``first + 1``, ...: each row's
    code as an intp."""
    for records in _render(first, code):
        fh.write(records)


def transcribe(path, chunks: Iterable[np.ndarray],
               header: dict | None = None) -> Iterator[np.ndarray]:
    """Write a session's round-code chunks to a transcript file as they pass through.

    Yields each chunk once its lines are written, so a session can be
    written and analyzed in one pass; the file is complete when the
    iteration ends.  Header lines are '# key = value'; an item that would
    not read back as written (an empty key, '=' in the key, a newline, or
    whitespace at either end of the key or the value) raises ValidationError
    before the file is opened.  A round's id is its index in the session.
    Each chunk is checked by ``require_codes``, which names the round's
    index in the session for a code out of range; the lines of earlier
    chunks are already written by then.
    """
    items = [(str(key), str(value)) for key, value in (header or {}).items()]
    for key, value in items:    # the reader splits at the first '=' and strips both
        if not key or "=" in key or any("\n" in s or s != s.strip() for s in (key, value)):
            raise ValidationError(
                f"header item {key!r} = {value!r} would not read back as written")
    with open(path, "wb") as fh:
        fh.write("".join(f"# {key} = {value}\n" for key, value in items).encode())
        base = 0
        for chunk in chunks:
            code = require_codes(chunk, base).astype(np.intp)   # the index type of ``take``
            _write_rows(fh, base, code)
            base += len(code)
            yield chunk


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

def _parse_lines(data: bytes, path, line0: int, prev_id: int, header: dict,
                 key_lines: dict):
    """The round codes and ids in ``data``, whole lines ending in a newline,
    and its line count.

    ``line0`` is the number of lines before ``data`` and ``prev_id`` the
    last round id before it; header lines are added to ``header``, and their
    keys' line numbers to ``key_lines``, where a key already there is a fault.
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
    errors = []
    for j in used[comment]:
        body = data[starts[first[j]] + 1:newlines[j]]
        if b"=" in body:
            try:
                key, _, value = body.decode().partition("=")
            except UnicodeDecodeError as exc:
                column = starts[first[j]] + exc.start + 2 - (newlines[j - 1] + 1 if j else 0)
                errors.append((j, f"not UTF-8 text (byte {body[exc.start]:#04x} "
                                  f"at column {column})"))
                break
            key = key.strip()
            if key in key_lines:
                errors.append((j, f"header key {key!r} repeated "
                                  f"(first at line {key_lines[key]})"))
                break
            key_lines[key] = line0 + j + 1
            header[key] = value.strip()

    lines = used[~comment]
    wrong = n_fields[lines] != 6
    rows = lines[~wrong]
    field = first[rows] + np.arange(6)[:, None]
    size = ends[field] - starts[field]
    # a field longer than one character reads as character 0, no field value
    chars = np.where(size[1:] == 1, buf[starts[field[1:]]], np.uint8(0))
    sa, oa, sb, ob, det = _CHAR_VALUE.take(chars)

    id_start, id_size = starts[field[0]], size[0]
    id_ok = id_size <= _MAX_ID_DIGITS
    ids = np.zeros(len(rows), dtype=np.int64)
    for k in range(min(int(id_size.max(initial=0)), _MAX_ID_DIGITS)):
        live = k < id_size
        digit = buf[id_start + np.minimum(k, id_size - 1)] - np.uint8(48)
        id_ok &= ~live | (digit <= 9)
        ids = np.where(live, 10 * ids + digit, ids)

    if wrong.any():
        j = lines[wrong.argmax()]
        errors.append((j, f"expected 6 fields, got {n_fields[j]}"))
    # one row per entry of _FAULTS; the uint8 differences wrap around
    seen, unseen = det == 1, det == 0
    faults = np.stack((
        ~id_ok,
        sa - 1 > 2,
        sb - 1 > 2,
        ~(seen | unseen),
        seen & (oa > 2) | unseen & (oa != 255),
        seen & (ob > 2) | unseen & (ob != 255),
        ids <= np.concatenate(([prev_id], ids[:-1])),
    ))
    bad = faults.any(axis=0)
    if bad.any():
        row = int(bad.argmax())
        text = tuple(data[starts[f]:ends[f]].decode(errors="replace") for f in field[:, row])
        errors.append((rows[row], _FAULTS[int(faults[:, row].argmax())].format(
            *text, want="0, 1 or 2" if text[5] == "1" else "'-'",
            prev=ids[row - 1] if row else prev_id)))
    if errors:
        at, message = min(errors)
        raise ValidationError(f"{path}:{line0 + at + 1}: {message}")

    code = np.where(seen, 3 * oa + ob, np.uint8(9))
    code += 30 * sa + 10 * sb - 40
    return code, ids, len(newlines)


def _parse_fixed(data, prev_id: int):
    """What ``_parse_lines`` returns for ``data`` if it is, byte for byte,
    what ``_render`` gives for consecutive ids after ``prev_id``; None
    otherwise.

    The first line's id fixes every line's width and offset, so each line's
    code is read from its tail's head through ``_HEAD_CODE``.  The block is
    taken only if it equals the writer's rendering of those ids and codes.
    """
    head = bytes(data[:_MAX_ID_DIGITS + 1])
    k = head.find(b" ")
    if k < 1 or not head[:k].isdigit():     # a leading zero fails the compare
        return None
    first = int(head[:k])
    if first <= prev_id:
        return None
    codes, start, at = [], first, 0
    while at < len(data):
        width = len(str(start))
        lines = min((len(data) - at) // (width + 11), 10 ** width - start)
        if not lines or width > _MAX_ID_DIGITS:
            return None
        slot = np.frombuffer(data, _record(width), lines, at)["head"] * _TAIL_HASH
        slot >>= 56
        codes.append(_HEAD_CODE.take(slot.view(np.int64)))
        start, at = start + lines, at + lines * (width + 11)
    code = np.concatenate(codes)
    at = 0
    for records in _render(first, code):
        # of equal lengths, so a prefix test: it reads ``data`` in place
        if not records.tobytes().startswith(data[at:at + records.nbytes]):
            return None
        at += records.nbytes
    return code.astype(np.uint8), np.arange(first, start, dtype=np.int64), len(code)


def iter_transcript(path, header: dict | None = None) -> Iterator[np.ndarray]:
    """Parse a transcript file one read block at a time.

    Yields the round codes of each block as a uint8 chunk, in file order,
    and adds header lines to ``header`` as they are read.  Ids are checked
    (strictly increasing) and dropped.  Raises ValidationError with the line
    number of the first bad line, among them a header line whose key an
    earlier one has.
    """
    header = {} if header is None else header
    key_lines = {}                      # header key -> its line number
    line0, prev_id, kept = 0, -1, 0
    buf = bytearray(2 * _READ_BLOCK_BYTES)
    with open(path, "rb") as fh:
        while True:
            # one reused buffer: the partial last line of the previous read,
            # then the next block, with room for the newline a last line lacks;
            # it grows only for a partial line longer than a block
            if len(buf) < kept + _READ_BLOCK_BYTES + 1:
                buf = buf[:kept] + bytearray(kept + 2 * _READ_BLOCK_BYTES)
            view = memoryview(buf)
            got = fh.readinto(view[kept:kept + _READ_BLOCK_BYTES])
            end = kept + got
            if not got and kept:            # the last line lacks its newline
                buf[end] = ord("\n")
                end += 1
            cut = buf.rfind(b"\n", 0, end) + 1
            # leading '#' lines (the header, in the first block) go alone
            # to the general grammar, so the rows after them can take the
            # fixed path
            start = 0
            while buf.startswith(b"#", start, cut):
                start = buf.index(b"\n", start, cut) + 1
            if start:
                line0 += _parse_lines(bytes(view[:start]), path, line0, prev_id, header,
                                      key_lines)[2]
            if start < cut:
                data = view[start:cut]
                code, ids, n_lines = (_parse_fixed(data, prev_id)
                                      or _parse_lines(bytes(data), path, line0, prev_id, header,
                                                      key_lines))
                line0 += n_lines
                if len(code):
                    prev_id = ids[-1]
                    yield code
            if not got:
                break
            kept = end - cut
            buf[:kept] = buf[cut:end]          # a copy: the two may overlap
