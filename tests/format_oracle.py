"""Reference readers and writers for code and array files, line by line.

oracle_parse_code and oracle_parse_oa read a file one content line at a
time into an array sized by the header, and oracle_save_code and
oracle_save_oa write one row at a time.  They were codes.parse_code,
oa.parse_oa, codes.save_code and oa.save_oa before those moved to the
shared block reader and writer of kuniform.textio; the tests hold the new
ones to these, message for message and byte for byte.  They allocate from
the header, so they are fed only headers whose arrays are small.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from kuniform.codes import LinearCode
from kuniform.errors import ParseError, RankDeficient
from kuniform.gf import field_new
from kuniform.oa import OrthogonalArray


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def oracle_parse_code(text: str, source: str = "<string>") -> LinearCode:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(f"{source}: empty code file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 5 or parts[0] != "code":
        raise ParseError(f"{source}:{lineno}: expected header 'code p m N t'")
    try:
        p, m, N, t = (int(x) for x in parts[1:])
    except ValueError:
        raise ParseError(f"{source}:{lineno}: non-integer header field") from None
    F = field_new(p, m)
    body = lines[1:]
    if len(body) != t:
        raise ParseError(f"{source}: expected {t} generator rows, found {len(body)}")
    G = np.zeros((t, N), dtype=np.int64)
    for i, (lineno, line) in enumerate(body):
        symbols = line.split()
        if len(symbols) != N:
            raise ParseError(f"{source}:{lineno}: row has {len(symbols)} symbols, expected {N}")
        try:
            row = [int(s) for s in symbols]
        except ValueError:
            raise ParseError(f"{source}:{lineno}: non-integer symbol") from None
        if any(s < 0 or s >= F.order for s in row):
            raise ParseError(f"{source}:{lineno}: symbol out of range for GF({F.order})")
        G[i] = row
    try:
        return LinearCode(F, G)
    except RankDeficient as exc:
        raise RankDeficient(f"{source}: {exc}") from None


def oracle_save_code(C: LinearCode, path: str | Path) -> None:
    path = Path(path)
    out = [f"code {C.field.p} {C.field.m} {C.N} {C.t}"]
    for row in C.G:
        out.append(" ".join(str(int(x)) for x in row))
    path.write_text("\n".join(out) + "\n")


def oracle_parse_oa(text: str, source: str = "<string>") -> OrthogonalArray:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(f"{source}: empty array file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 5 or parts[0] != "oa":
        raise ParseError(f"{source}:{lineno}: expected header 'oa r N d k'")
    try:
        r, N, d, k = (int(x) for x in parts[1:])
    except ValueError:
        raise ParseError(f"{source}:{lineno}: non-integer header field") from None
    body = lines[1:]
    if len(body) != r:
        raise ParseError(f"{source}: expected {r} rows, found {len(body)}")
    rows = np.zeros((r, N), dtype=np.int64)
    for i, (lineno, line) in enumerate(body):
        symbols = line.split()
        if len(symbols) != N:
            raise ParseError(f"{source}:{lineno}: row has {len(symbols)} symbols, expected {N}")
        try:
            rows[i] = [int(s) for s in symbols]
        except ValueError:
            raise ParseError(f"{source}:{lineno}: non-integer symbol") from None
        if rows[i].min() < 0 or rows[i].max() >= d:
            raise ParseError(f"{source}:{lineno}: symbol out of range [0, {d})")
    try:
        return OrthogonalArray(d=d, rows=rows, k=k, provenance=source)
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from None


def oracle_save_oa(A: OrthogonalArray, path: str | Path) -> None:
    path = Path(path)
    out = [f"oa {A.r} {A.N} {A.d} {A.k}"]
    for row in A.rows:
        out.append(" ".join(str(int(x)) for x in row))
    path.write_text("\n".join(out) + "\n")
