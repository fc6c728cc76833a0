"""Transcript files: the public record of a session's rounds, written and read.

A transcript is exactly what ``transcribe`` writes: the header, one
'# key = value' line per item, each key once, then one line per round,
  round_id setting_a outcome_a setting_b outcome_b detected
  round_id    the round's position in the session: 0, 1, 2, ... (at most 18 digits)
  setting_*   1, 2 or 3
  detected    0 or 1
  outcome_*   0, 1 or 2 when detected is 1, '-' when detected is 0
with single spaces between the fields and '\\n' after the last.  The one
tolerance is a last line that lacks its newline.

A round is its ``protocol`` round code, and a chunk of rounds an array of
codes.  A header line's layout is stated once, by ``_header_line``, and a
round line's by ``_record`` and ``_render``, which renders row ``code`` of
90 line tails.  The reader takes a header line only if it renders back to
its own bytes, and reads the rows one span of ``_spans`` at a time, each
only if it equals the rendering of the codes it reads; else ``_line_fault``
words the fault of the first line that differs, named with its line number.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cache

import numpy as np

from .linalg import ValidationError
from .protocol import CODE_FIELDS, require_codes

_MAX_ID_DIGITS = 18                 # every such id fits in an int64
# a span of _spans holds at most 10 000 lines of at most _MAX_ID_DIGITS + 11 bytes
_SPAN_BYTES = 10_000 * (_MAX_ID_DIGITS + 11)

# The writer's 11-byte line tails " sa oa sb ob det\n", one per round code.
_TAILS = np.full((90, 11), ord(" "), dtype=np.uint8)
_TAILS[:, 10] = ord("\n")
_TAILS[:, 1:10:2] = np.where(CODE_FIELDS >= 0, 48 + CODE_FIELDS, ord("-")).T
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
# would reject the writer's own files: the check below guards that.
_TAIL_HASH = np.uint64(0xB1EDF681CAB21531)
_slots = (_TAIL_HEAD * _TAIL_HASH) >> 56
if len(set(_slots.tolist())) != 90:
    raise RuntimeError("_TAIL_HASH does not separate the 90 line tails")
_HEAD_CODE = np.zeros(256, dtype=np.int64)
_HEAD_CODE[_slots] = np.arange(90)
del _slots

_CRLF = "CR LF line end: lines end in '\\n' alone (tr -d '\\r' converts a file)"
_FAULTS = (
    f"round_id {{0!r}} is not a non-negative integer of at most {_MAX_ID_DIGITS} digits",
    "setting_a {1!r} is not 1, 2 or 3",
    "setting_b {3!r} is not 1, 2 or 3",
    "detected {5!r} is not 0 or 1",
    "outcome_a {2!r} must be {want} when detected is {5}",
    "outcome_b {4!r} must be {want} when detected is {5}",
    "round_id {0} is not {position}: round ids are the rows' positions, from 0",
)


def _header_line(key: str, value: str) -> bytes:
    """The header line of ``key`` = ``value``, with '?' for what UTF-8 cannot encode."""
    return f"# {key} = {value}\n".encode(errors="replace")


def _header_item(line: bytes) -> tuple[str, str] | None:
    """The item, a non-empty key and a value, whose ``_header_line`` is
    ``line``, or None if there is none.  ``line`` is split at its first '=',
    and both sides are stripped.  Raises UnicodeDecodeError if ``line`` is
    not UTF-8 text."""
    key, _, value = line.decode()[2:-1].partition("=")
    key, value = key.strip(), value.strip()
    ok = key and b"\n" not in line[:-1] and _header_line(key, value) == line
    return (key, value) if ok else None


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


def transcript_size(n: int, header: dict | None = None) -> int:
    """The bytes of the transcript ``transcribe`` writes of ``n`` rounds and
    ``header``, in closed form: a line of ``width + 11`` bytes per round,
    and an id's width is 1 plus the number of 10, 100, ..., 10**17 it reaches."""
    head = sum(len(_header_line(str(key), str(value))) for key, value in (header or {}).items())
    return head + 12 * n + sum(max(0, n - 10 ** k) for k in range(1, _MAX_ID_DIGITS))


def _render(start: int, width: int, code: np.ndarray, out: bytearray) -> np.ndarray:
    """The writer's lines for the span of ``_spans`` from id ``start``, of
    ``width``-digit ids, and the valid round codes ``code`` (intp, the index
    type of ``take``), rendered at the front of ``out``, a buffer of at
    least ``_SPAN_BYTES``.

    Returns them as an array of ``_record(width)`` over ``out``, whose last
    digit group is a slice of ``_DIGITS4_U32`` and whose higher groups are
    constants; the next call overwrites it.
    """
    rows = len(code)
    records = np.frombuffer(out, _record(width), rows)
    low = start % 10_000
    # constants as arrays too: a strided field is filled faster from an array
    groups = [np.full(rows, _DIGITS4_U32[start // 10_000 ** k % 10_000])
              for k in range((width - 1) // 4, 0, -1)] + [_DIGITS4_U32[low:low + rows]]
    groups[0] = groups[0] >> 8 * (3 - (width - 1) % 4)
    for i, group in enumerate(groups):
        records[f"d{i}"] = group
    records["head"] = _TAIL_HEAD.take(code)
    records["end"] = _TAIL_END.take(code)
    return records


def _write_rows(fh, first: int, code: np.ndarray, out: bytearray) -> None:
    """Write valid rows with the ids ``first``, ``first + 1``, ...: each row's
    code as an intp, each span rendered in ``out`` (see ``_render``)."""
    for start, width, rows in _spans(first, len(code)):
        lo = start - first
        fh.write(_render(start, width, code[lo:lo + rows], out))


def transcribe(path, chunks: Iterable[np.ndarray],
               header: dict | None = None) -> Iterator[np.ndarray]:
    """Write a session's round-code chunks to a transcript file as they pass through.

    Yields each chunk once its lines are written, so a session can be
    written and analyzed in one pass; the file is complete when the
    iteration ends.  An item of ``header`` whose '# key = value' line would
    not read back as that one item raises ValidationError before the file
    is opened.  A round's id is its index in the session.  Each chunk is
    checked by ``require_codes``, which names the round's index in the
    session for a code out of range; the lines of earlier chunks are
    already written by then.
    """
    items = [(str(key), str(value)) for key, value in (header or {}).items()]
    for item in items:
        if _header_item(_header_line(*item)) != item:
            raise ValidationError(
                f"header item {item[0]!r} = {item[1]!r} would not read back as written")
    out = bytearray(_SPAN_BYTES)
    with open(path, "wb") as fh:
        fh.write(b"".join(_header_line(*item) for item in items))
        base = 0
        for chunk in chunks:
            code = require_codes(chunk, base).astype(np.intp)   # the index type of ``take``
            _write_rows(fh, base, code, out)
            base += len(code)
            yield chunk


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

def _line_fault(line: bytes, position: int) -> str:
    """Why ``line``, ending in its newline, is not the writer's line of the
    round at ``position``: the first fault of its layout, its field count,
    its fields in ``_FAULTS`` order and its id."""
    if line == b"\n":
        return "blank line"
    if line.startswith(b"#"):
        return "'#' line after the first round: header lines come first"
    if line.endswith(b"\r\n"):
        return _CRLF
    fields = line[:-1].split(b" ")
    if fields != line.split():
        return "fields must be separated by single spaces, with none before or after them"
    if len(fields) != 6:
        return f"expected 6 fields, got {len(fields)}"
    rid, sa, oa, sb, ob, det = text = [field.decode(errors="replace") for field in fields]
    outcomes = ("0", "1", "2") if det == "1" else ("-",)
    faults = (
        not (fields[0].isdigit() and len(rid) <= _MAX_ID_DIGITS),
        sa not in ("1", "2", "3"),
        sb not in ("1", "2", "3"),
        det not in ("0", "1"),
        oa not in outcomes,
        ob not in outcomes,
        rid != str(position),
    )
    return _FAULTS[faults.index(True)].format(
        *text, want="0, 1 or 2" if det == "1" else "'-'", position=position)


def _parse_fixed(data, start: int, width: int, rows: int, path, line0: int, out) -> np.ndarray:
    """The round codes (uint8) of ``data``, which must be, byte for byte, the
    writer's lines of a span of ``_spans`` (``rows`` ids of ``width`` digits
    from ``start``) or its first lines, after ``line0`` lines of ``path``.
    Each line's code is read from its tail's head through ``_HEAD_CODE``, and
    the lines rendered from their ids and codes in ``out`` (see ``_render``)
    must equal ``data``.  Else every byte before the first differing one is
    the writer's, and ValidationError names the line holding it."""
    rows = min(rows, len(data) // (width + 11))
    size = rows * (width + 11)
    slot = np.frombuffer(data, _record(width), rows)["head"] * _TAIL_HASH
    slot >>= 56
    code = _HEAD_CODE.take(slot.view(np.int64))
    _render(start, width, code, out)
    # a bytearray compares with a buffer by one memcmp, in place
    if len(data) == size and out.startswith(data):
        return code.astype(np.uint8)
    differ = np.frombuffer(out, np.uint8, size) != np.frombuffer(data, np.uint8, size)
    j = int(next(iter(np.flatnonzero(differ)), size)) // (width + 11)
    line = bytes(data[j * (width + 11):]).partition(b"\n")[0] + b"\n"
    raise ValidationError(f"{path}:{line0 + j + 1}: {_line_fault(line, start + j)}")


def _read_rows(fh, first: int, path, line0: int) -> Iterator[np.ndarray]:
    """The round codes (uint8) of the rest of ``fh``, round lines for the ids
    ``first``, ``first + 1``, ... after ``line0`` lines of ``path``: one
    ``readinto`` per span of ``_spans``, of the bytes its ids fix.  A read
    not ending in a newline ends in a line that is not the writer's, or in
    the last line, which gets the newline it lacks; an empty read ends the
    file.  A line after id 10**18 - 1 is refused."""
    buf, out = bytearray(_SPAN_BYTES), bytearray(_SPAN_BYTES)
    view, last = memoryview(buf), 10 ** _MAX_ID_DIGITS
    for start, width, rows in _spans(first, last - first):
        got = fh.readinto(view[:rows * (width + 11)])
        if not got:
            return
        data = view[:got]
        if buf[got - 1] != ord("\n"):      # ``readline`` returns one newline at most
            data = (bytes(data) + fh.readline()).rstrip(b"\n") + b"\n"
        yield _parse_fixed(data, start, width, rows, path, line0 + start - first, out)
    if line := fh.readline():
        _parse_fixed(line.rstrip(b"\n") + b"\n", last, _MAX_ID_DIGITS + 1, 0, path,
                    line0 + last - first, out)


def iter_transcript(path, header: dict | None = None) -> Iterator[np.ndarray]:
    """Parse a transcript file one span of ``_spans`` at a time.

    Yields the round codes of each span as a uint8 chunk, in file order, and
    adds header lines to ``header`` as they are read.  Ids are checked (0, 1,
    2, ... down the file) and dropped.  Raises ValidationError with the line
    number of the first line not as the writer writes it, among them a
    header line whose key an earlier one has."""
    header = {} if header is None else header
    key_lines = {}                      # header key -> its line number
    with open(path, "rb") as fh:
        # the '#' lines before the first round are the header
        while fh.peek(1).startswith(b"#"):
            line, at = fh.readline().rstrip(b"\n") + b"\n", f"{path}:{len(key_lines) + 1}"
            try:
                item = _header_item(line)
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{at}: not UTF-8 text (byte {line[exc.start]:#04x} "
                                      f"at column {exc.start + 1})") from None
            if item is None:
                raise ValidationError(f"{at}: {_CRLF}" if line.endswith(b"\r\n") else
                                      f"{at}: not a '# key = value' header line")
            key, value = item
            if key in key_lines:
                raise ValidationError(f"{at}: header key {key!r} repeated "
                                      f"(first at line {key_lines[key]})")
            key_lines[key], header[key] = len(key_lines) + 1, value
        yield from _read_rows(fh, 0, path, len(key_lines))
