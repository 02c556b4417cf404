"""The text conventions shared by code, array and state files.

A file is one header line and a body of rows, with whitespace-separated
fields; `#` starts a comment and blank lines are skipped.  read_blocks reads
a body on arrays, _BLOCK lines at a time; read_lines reads it one line at a
time, only when the block reader cannot take it as it stands or a format
refuses its values, and its ParseError names the first faulty line.
write_rows formats _BLOCK rows per format operation.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError

_BLOCK = 1 << 14


class LineFault(Exception):
    """What is wrong with one body line; read_lines adds which line."""


def read_header(text: str, source: str, what: str, usage: str, ints: int = 4) -> tuple[int, list, list]:
    """The line number of a header that reads `usage`, e.g. 'oa r N d k', its
    fields after the keyword, the first `ints` as integers, and the body."""
    lines = text.splitlines()
    start = next((i for i, raw in enumerate(lines) if raw.split("#", 1)[0].strip()), None)
    if start is None:
        raise ParseError(f"{source}: empty {what} file")
    parts = lines[start].split("#", 1)[0].split()
    if len(parts) != len(usage.split()) or parts[0] != usage.split()[0]:
        raise ParseError(f"{source}:{start + 1}: expected header '{usage}'")
    try:
        fields = [int(x) for x in parts[1 : ints + 1]] + parts[ints + 1 :]
    except ValueError:
        raise ParseError(f"{source}:{start + 1}: non-integer header field") from None
    return start + 1, fields, lines[start + 1 :]


def read_blocks(lines: list, width: int, convert=lambda body, values, plain: (values,) if plain.all() else None):
    """A tuple of arrays holding the body `lines`, or None when a content
    line does not hold `width` fields or convert(body, values, plain)
    refuses a block: its comment-free text and the arrays of _int_fields.
    Reading _BLOCK lines at a time bounds the temporary arrays."""
    if width < 1:
        return None
    blocks = []
    for start in range(0, max(len(lines), 1), _BLOCK):
        chunk = lines[start : start + _BLOCK]
        body = "\n".join(chunk)
        if "#" in body:
            body = "\n".join(line.split("#", 1)[0] for line in chunk)
        fields = _int_fields(body, width)
        block = None if fields is None else convert(body, *fields)
        if block is None:
            return None
        blocks.append(block)
    return tuple(np.concatenate(part) for part in zip(*blocks))


def _int_fields(body: str, width: int):
    """The fields of `body` as a (lines, width) int64 array, one row per
    non-blank line, and a mask of the plain fields: an optional '-' and 1 to
    18 ASCII digits, which int64 always holds and int() reads alike; the
    values of other fields are meaningless.  None unless the body is ASCII
    with fields separated by spaces and tabs, and every non-blank line has
    `width` fields."""
    if not body.isascii():
        return None
    b = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    if ((b < 32) & (b != ord("\n")) & (b != ord("\t"))).any():
        return None
    field = np.concatenate(([False], b > 32, [False]))
    edges = np.flatnonzero(field[1:] != field[:-1])
    starts, ends = edges[::2], edges[1::2]
    if len(starts) % width:
        return None
    # each row's fields share a line, and the next row starts on a later one
    newlines = np.flatnonzero(b == ord("\n"))
    line_first = np.searchsorted(newlines, starts[::width])
    line_last = np.searchsorted(newlines, starts[width - 1 :: width])
    if (line_first != line_last).any() or (line_first[1:] <= line_last[:-1]).any():
        return None
    negative = b[starts] == ord("-")
    length = ends - starts - negative
    plain = (length >= 1) & (length <= 18)
    # a byte other than a digit is allowed only as a field's leading '-'
    odd = np.flatnonzero(field[1:-1] & ((b < ord("0")) | (b > ord("9"))))
    at = np.searchsorted(starts, odd, side="right") - 1
    plain[at[(odd != starts[at]) | (b[odd] != ord("-"))]] = False
    values = b[ends - 1].astype(np.int64) - ord("0")
    for place in range(1, int(length.max(initial=0, where=plain))):
        longer = np.flatnonzero(plain & (length > place))
        values[longer] += (b[ends[longer] - 1 - place].astype(np.int64) - ord("0")) * 10**place
    values[negative] *= -1
    return values.reshape(-1, width), plain.reshape(-1, width)


def read_lines(lines: list, first_lineno: int, source: str, read_line) -> list:
    """read_line(fields) of each content line of `lines`, the first numbered
    `first_lineno`; a LineFault becomes a ParseError naming its line."""
    out = []
    for lineno, raw in enumerate(lines, start=first_lineno):
        fields = raw.split("#", 1)[0].split()
        try:
            if fields:
                out.append(read_line(fields))
        except LineFault as fault:
            raise ParseError(f"{source}:{lineno}: {fault}") from None
    return out


def read_symbols(lines: list, header_lineno: int, source: str, rows: int, width: int, bound: int, out_of_range: str, noun: str) -> np.ndarray:
    """The (rows, width) int64 body of a code or array file, integer
    symbols in [0, bound).  A ParseError names a wrong row count, then a
    negative width, then the first faulty line."""
    table = read_blocks(lines, width)
    if table is not None and len(table[0]) == rows and (not rows or 0 <= table[0].min() and table[0].max() < bound):
        return table[0]
    found = sum(1 for raw in lines if raw.split("#", 1)[0].strip())
    if found != rows:
        raise ParseError(f"{source}: expected {rows} {noun}, found {found}")
    if width < 0:
        raise ParseError(f"{source}:{header_lineno}: negative row length {width}")

    def read_line(fields: list) -> list:
        if len(fields) != width:
            raise LineFault(f"row has {len(fields)} symbols, expected {width}")
        try:
            row = [int(s) for s in fields]
        except ValueError:
            raise LineFault("non-integer symbol") from None
        if any(not 0 <= s < bound for s in row):
            raise LineFault(out_of_range)
        if max(row) >> 63:
            raise LineFault("symbol must be below 2^63")
        return row

    return np.array(read_lines(lines, header_lineno + 1, source, read_line), dtype=np.int64).reshape(rows, width)


def write_rows(path, header: str, line: str, rows: int, block) -> None:
    """Write `header` and `rows` rows, block(s) giving the rows in slice s
    as a 2-d array and `line` formatting one row."""
    with open(path, "w") as out:
        out.write(header + "\n")
        for start in range(0, rows, _BLOCK):
            table = block(slice(start, start + _BLOCK))
            out.write(line * len(table) % tuple(table.reshape(-1).tolist()))
