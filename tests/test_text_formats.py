"""Code and array files against the line-by-line oracle, and every parser
against malformed headers.

The oracle is the reader and writer that allocated from the header and read
one line at a time; the block reader must give the same codes and arrays,
the same ParseError messages and the same saved bytes.  Where the oracle
escaped with another exception, the parser must raise a KuniformError.
"""

from __future__ import annotations

import numpy as np
import pytest
from format_oracle import oracle_parse_code, oracle_parse_oa, oracle_save_code, oracle_save_oa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kuniform import KuniformError, textio
from kuniform.codes import load_bundled_code, mds_code, parse_code, save_code
from kuniform.gf import field_new
from kuniform.oa import oa_from_code, parse_oa, save_oa, trim_to_iroa
from kuniform.states import parse_state

# field orders with p^m, for code headers
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}

# faults of one body line, with the way each is written in
FAULTS = ("short row", "extra field", "1.0", "+1", "19-digit symbol", "non-ASCII digit", "out of range", "row count")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


def _outcome(parse, text: str):
    """What `parse` gives: its result, the class name and message of a
    KuniformError, or 'other' for any other exception."""
    try:
        return parse(text, source="f")
    except KuniformError as exc:
        return type(exc).__name__, str(exc)
    except Exception:  # the oracle allocates from the header
        return "other"


def _file(draw, header: str, rows: list, top: int) -> str:
    """The file of `header` and `rows` in varied spacing, comments, blank
    lines and line ends, with at most one fault from FAULTS."""
    body = [[str(x) for x in row] for row in rows]
    fault = draw(st.sampled_from((None,) + FAULTS))
    if body and fault not in (None, "row count"):
        at, col = draw(st.integers(0, len(body) - 1)), draw(st.integers(0, len(body[0]) - 1))
        if fault == "short row":
            del body[at][col]
        elif fault == "extra field":
            body[at].insert(col, "0")
        elif fault == "1.0":
            body[at][col] += ".0"
        elif fault == "+1":
            body[at][col] = "+" + body[at][col]
        elif fault == "19-digit symbol":
            body[at][col] = draw(st.sampled_from(("1000000000000000000", "0000000000000000001", "9999999999999999999")))
        elif fault == "non-ASCII digit":
            body[at][col] = body[at][col].translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
        else:
            body[at][col] = str(draw(st.sampled_from((top, -1, top + 7))))
    elif fault == "row count":
        if body and draw(st.booleans()):
            del body[draw(st.integers(0, len(body) - 1))]
        else:
            body.append(list(body[0]) if body else ["0"])
    lines = [header + draw(st.sampled_from(("", "  # header")))]
    for fields in body:
        sep = draw(st.sampled_from((" ", "  ", "\t", " \t ")))
        lines.append(draw(st.sampled_from(("", " "))) + sep.join(fields) + draw(st.sampled_from(("", " ", "  # row"))))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(("", "  ", "# comment", "\t"))))
    lines = draw(st.sampled_from(([], ["# made by hand", ""]))) + lines
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines) + draw(st.sampled_from(("\n", "\r\n", "")))


@st.composite
def code_files(draw):
    q = draw(st.sampled_from(sorted(FIELDS)))
    N = draw(st.integers(1, 6))
    t = draw(st.integers(1, min(N, 3)))
    rows = [[draw(st.integers(0, q - 1)) for _ in range(N)] for _ in range(t)]
    return _file(draw, "code %d %d %d %d" % (*FIELDS[q], N, t), rows, q)


@st.composite
def oa_files(draw):
    d = draw(st.integers(2, 5))
    N = draw(st.integers(1, 5))
    k = draw(st.integers(0, 2))
    r = draw(st.sampled_from((1, 2, 3, d, d * d, 2 * d)))
    rows = [[draw(st.integers(0, d - 1)) for _ in range(N)] for _ in range(r)]
    return _file(draw, f"oa {r} {N} {d} {k}", rows, d)


def _refused_alike(got, want) -> bool:
    """Whether the oracle refused the file; if so, the parser must give its
    error and message, or a ParseError where the oracle escaped."""
    if want == "other":
        assert isinstance(got, tuple) and got[0] == "ParseError", got
    elif isinstance(want, tuple):
        assert got == want
    return isinstance(want, (tuple, str))


def _saved_alike(obj, save, oracle_save, scratch):
    save(obj, scratch / "new")
    oracle_save(obj, scratch / "oracle")
    assert (scratch / "new").read_bytes() == (scratch / "oracle").read_bytes()


@settings(max_examples=300)
@given(text=code_files(), block=st.sampled_from((1, 2, textio._BLOCK)))
@example(text="# c\ncode 3 1 4 2  # h\r\n0\t1 1 1\r\n\r\n1 0 2 1  # r\r\n", block=1)
@example(text="code 2 1 3 1\n1 ٠ 1\n", block=1)
def test_codes_match_line_oracle(scratch, text, block):
    """Also when lines are read and rows saved a block of 1 or 2 at a time."""
    want = _outcome(oracle_parse_code, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_BLOCK", block)
        got = _outcome(parse_code, text)
        if not _refused_alike(got, want):
            assert got.field == want.field and np.array_equal(got.G, want.G)
            _saved_alike(got, save_code, oracle_save_code, scratch)


@settings(max_examples=300)
@given(text=oa_files(), block=st.sampled_from((1, 2, textio._BLOCK)))
@example(text="oa 1 2 3 0\n0 9999999999999999999\n", block=1)
def test_arrays_match_line_oracle(scratch, text, block):
    want = _outcome(oracle_parse_oa, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_BLOCK", block)
        got = _outcome(parse_oa, text)
        if not _refused_alike(got, want):
            assert (got.d, got.k, got.provenance) == (want.d, want.k, want.provenance)
            assert np.array_equal(got.rows, want.rows)
            _saved_alike(got, save_oa, oracle_save_oa, scratch)


def test_built_codes_and_arrays_save_as_the_oracle(scratch):
    C = mds_code(field_new(2, 4), 3)
    A = oa_from_code(C)
    for obj, save, oracle_save in (
        (C, save_code, oracle_save_code),
        (load_bundled_code("sd12_gf4"), save_code, oracle_save_code),
        (A, save_oa, oracle_save_oa),
        (trim_to_iroa(A, 3, 10), save_oa, oracle_save_oa),
    ):
        _saved_alike(obj, save, oracle_save, scratch)


# ---------------------------------------------------------------------------
# malformed headers: every parser raises a KuniformError, never another
# exception, and allocates nothing from the header's numbers

HUGE = st.one_of(st.integers(-3, 4), st.integers(-(10**18), 10**18))


@st.composite
def header_files(draw):
    kind = draw(st.sampled_from(("code", "oa", "state")))
    fields = [draw(HUGE) for _ in range(4)]
    if kind == "state":
        fields[3] = draw(st.sampled_from(("exact", "float", fields[3])))
    body = [" ".join(str(draw(st.integers(-1, 2))) for _ in range(draw(st.integers(0, 4)))) for _ in range(draw(st.integers(0, 3)))]
    return "\n".join([" ".join(map(str, [kind] + fields))] + body) + "\n"


@settings(max_examples=400)
@given(text=header_files())
@example(text="oa 1 1000000000000 2 0\n0 1\n")
@example(text="oa 1 -1 2 0\n0\n")
@example(text="code 2 1 -1 0\n")
@example(text="code 4 1 2 1\n1 1\n")
@example(text="code 2 1 1 2\n1\n1\n")
@example(text="code 2 1 0 0\n")
@example(text="state 1000000000000000000 1 1 exact\n\n")
def test_header_faults_raise_named_errors(text):
    parse = {"code": parse_code, "oa": parse_oa, "state": parse_state}[text.split()[0]]
    try:
        parse(text, source="f")
    except KuniformError:
        pass
