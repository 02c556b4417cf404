"""Array-backed states against the dict-backed oracle: parsing, saving,
validation, tensor products, inner products and uniformity reports."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reduction_oracle import oracle_verify_k_uniform
from state_oracle import (
    DictState,
    oracle_inner_product,
    oracle_parse_state,
    oracle_state_text,
    oracle_tensor_parties,
)

from kuniform import textio
from kuniform.catalog import construct_k_uniform
from kuniform.errors import CapExceeded, NormError, ParseError
from kuniform.states import (
    PureState,
    ghz,
    inner_product,
    parse_state,
    save_state,
    tensor_parties,
    verify_k_uniform,
)

# numerator magnitudes at and around the int64 boundary
BIG = (2**31, 2**62, 2**63 - 1, 2**63, 2**64 + 3, 3**41)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("states")


def _outcome(build, *args, **kwargs):
    """The state `build` returns, or the class name and message of the
    ValueError it raises."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        return "NormError" if isinstance(exc, NormError) else type(exc).__name__, str(exc)


def _value(amp):
    """An amplitude with float parts as hex, so equal means equal bits."""
    if isinstance(amp, complex):
        return amp.real.hex(), amp.imag.hex()
    return amp


def _items(state) -> list:
    return [(idx, _value(amp)) for idx, amp in state.amplitudes.items()]


def assert_same_state(got: PureState, want: DictState):
    assert (got.N, got.d, got.r, got.exact) == (want.N, want.d, want.r, want.exact)
    assert _items(got) == _items(want)  # same terms in the same order


@st.composite
def numerator(draw):
    if draw(st.integers(0, 3)):
        return draw(st.integers(-9, 9))
    return draw(st.sampled_from(BIG)) * draw(st.sampled_from((1, -1))) + draw(st.integers(-1, 1))


@st.composite
def term_lists(draw, N=None, d=None, exact=None, alphabet=None):
    """(N, d, exact, rows, values): distinct index rows in a random order
    and a nonzero amplitude per row, normalized when float."""
    N = draw(st.integers(1, 4)) if N is None else N
    d = draw(st.integers(1, 4)) if d is None else d
    exact = draw(st.booleans()) if exact is None else exact
    top = d - 1 if alphabet is None else min(alphabet, d) - 1
    rows = draw(st.lists(st.tuples(*[st.integers(0, top)] * N), min_size=1, max_size=10, unique=True))
    if exact:
        values = [draw(st.tuples(numerator(), numerator()).filter(any)) for _ in rows]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        v = (1, 1j) @ rng.normal(size=(2, len(rows))) * 10.0 ** draw(st.integers(-3, 3))
        values = (v / np.linalg.norm(v)).tolist()
    return N, d, exact, rows, values


def _dict_state(N, d, exact, rows, values):
    amps = dict(zip(rows, values))
    r = sum(a * a + b * b for a, b in values) if exact else 1
    return DictState(N, d, amps, r, exact)


@st.composite
def dict_states(draw, **kw):
    return _dict_state(*draw(term_lists(**kw)))


def _array_state(s: DictState) -> PureState:
    return PureState(s.N, s.d, dict(s.amplitudes), s.r, s.exact)


# ---------------------------------------------------------------------------
# parse, then save


def _field(draw, x: int) -> str:
    """x as a field int() reads back: usually plain, sometimes with a
    leading zero, a '+' sign or Arabic-Indic digits."""
    form = draw(st.integers(0, 9))
    if form == 0:
        return "0" + str(x) if x >= 0 else str(x)
    if form == 1:
        return "+" + str(x) if x >= 0 else str(x)
    if form == 2:
        return str(x).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    return str(x)


@st.composite
def state_files(draw):
    """State file text: valid files in varied spacing, comments and line
    breaks, and copies with one fault each."""
    N, d, exact, rows, values = draw(term_lists())
    r = sum(a * a + b * b for a, b in values) if exact else 1
    body = []
    for row, v in zip(rows, values):
        amp = [_field(draw, v[0]), _field(draw, v[1])] if exact else [repr(v.real), repr(v.imag)]
        fields = [_field(draw, x) for x in row] + amp
        sep = draw(st.sampled_from((" ", "  ", "\t", " \t ")))
        line = sep.join(fields) + draw(st.sampled_from(("", " ", "  # note")))
        body.append(line)
        if draw(st.integers(0, 5)) == 0:
            body.append(draw(st.sampled_from(("", "   ", "# comment"))))
    fault = draw(st.integers(0, 12))
    at = draw(st.integers(0, len(body) - 1))
    if fault == 1:  # repeat a row further down
        body.insert(draw(st.integers(at + 1, len(body))), body[at])
    elif fault == 2:  # an index out of range, or one int() cannot read
        bad = draw(st.sampled_from((str(d), "-1", "x", "1.0", "-", "0-", "1-0", "--1", "10" * 10, "٣", "1_0")))
        body[at] = " ".join([bad] + body[at].split()[1:])
    elif fault == 3:  # a field too many or too few
        fields = body[at].split("#")[0].split()
        body[at] = " ".join(fields[:-1] if draw(st.booleans()) else fields + ["0"])
    elif fault == 4:  # a zero or malformed amplitude
        fields = body[at].split("#")[0].split()
        tail = draw(st.sampled_from(("0 0", "0 -0", "1e3 0", "nan 0", "inf 1", "- 1", "2-1 0", "0x1 0")))
        body[at] = " ".join(fields[:-2] + [tail])
    elif fault == 5:  # a wrong denominator
        r += draw(st.sampled_from((-1, 1, 2**64)))
    elif fault == 6:  # an unusual separator that str.split() takes
        body[at] = body[at].replace(" ", draw(st.sampled_from(("\x1f", "\x0b", "\xa0"))), 1)
    header = f"state {N} {d} {r} {'exact' if exact else 'float'}"
    lines = draw(st.sampled_from(([], ["# made by hand", ""]))) + [header] + body
    return draw(st.sampled_from(("\n", "\r\n"))).join(lines) + draw(st.sampled_from(("\n", "")))


@settings(max_examples=250)
@given(text=state_files(), block=st.sampled_from((1, 3, textio._BLOCK)))
@example(text="state 1 2 85070591730234615865843651857942052864 exact\n0 9223372036854775808 0\n", block=1)
@example(text="state 2 3 1 float\n0 1 0.6 -0.0\n2 2 0.0 0.8\n", block=1)
def test_parse_and_save_match_dict_oracle(scratch, text, block):
    """Also when lines are read and terms saved a block of 1 or 3 at a time."""
    want = _outcome(oracle_parse_state, text, source="s.state")
    with mock.patch.object(textio, "_BLOCK", block):
        got = _outcome(parse_state, text, source="s.state")
        if isinstance(want, tuple):
            assert got == want
            return
        assert_same_state(got, want)
        path = scratch / "copy.state"
        save_state(got, path)
    assert path.read_bytes() == oracle_state_text(want).encode()


# ---------------------------------------------------------------------------
# validation of constructed states


@st.composite
def faulty_terms(draw):
    """Constructor arguments with at most one fault: a zero amplitude, an
    index out of range, a short index or a wrong denominator."""
    N, d, exact, rows, values = draw(term_lists())
    amps = dict(zip(rows, values))
    r = sum(a * a + b * b for a, b in values) if exact else 1
    fault = draw(st.integers(0, 5))
    at = rows[draw(st.integers(0, len(rows) - 1))]
    if fault == 1:
        amps[at] = (0, 0) if exact else 0j
    elif fault == 2:
        amps[at[:-1] + (d,)] = amps.pop(at)
    elif fault == 3:
        amps[at[:-1]] = amps.pop(at)
    elif fault == 4:
        r += draw(st.sampled_from((-1, 1, 2**70)))
    return N, d, amps, r, exact


@settings(max_examples=200)
@given(args=faulty_terms())
def test_validation_matches_dict_oracle(args):
    got = _outcome(PureState, *args)
    want = _outcome(DictState, *args)
    if isinstance(want, tuple):
        assert (got[0] == "NormError", got[1]) == (want[0] == "NormError", want[1])
        return
    assert_same_state(got, want)


def test_amplitudes_are_a_read_only_view():
    s = ghz(2, 3)
    with pytest.raises(TypeError):
        s.amplitudes[(0, 0)] = (2, 0)
    assert s.amplitudes == {(i, i): (1, 0) for i in range(3)}
    assert s == PureState(2, 3, {(2, 2): (1, 0), (0, 0): (1, 0), (1, 1): (1, 0)}, r=3)  # order-insensitive
    assert s != PureState(2, 3, {(2, 2): (1, 0), (0, 1): (1, 0), (1, 1): (1, 0)}, r=3)


# ---------------------------------------------------------------------------
# tensor and inner products


@st.composite
def state_pairs(draw, same_d: bool):
    N = draw(st.integers(1, 3))
    d1 = draw(st.integers(1, 4))
    d2 = d1 if same_d else draw(st.integers(1, 4))
    s1 = draw(dict_states(N=N, d=d1, alphabet=2))
    s2 = draw(dict_states(N=N, d=d2, alphabet=2))
    return s1, s2


@settings(max_examples=120)
@given(pair=state_pairs(same_d=False))
def test_tensor_matches_dict_oracle(pair):
    s1, s2 = pair
    assert_same_state(tensor_parties(_array_state(s1), _array_state(s2)), oracle_tensor_parties(s1, s2))


@settings(max_examples=120)
@given(pair=state_pairs(same_d=True))
@example(pair=(DictState(1, 2, {(0,): (1, 0)}), DictState(1, 2, {(1,): (0, 2**63)}, r=2**126)))
def test_inner_product_matches_dict_oracle(pair):
    s1, s2 = pair
    got = inner_product(_array_state(s1), _array_state(s2))
    want = oracle_inner_product(s1, s2)
    assert (got.exact, got.r_ket, got.r_bra) == (want.exact, want.r_ket, want.r_bra)
    assert _value(got.num) == _value(want.num)


def test_tensor_terms_capped_before_allocation(monkeypatch):
    s1, s2 = ghz(3, 4), ghz(3, 5)
    monkeypatch.setenv("KUF_CAPS", "oa_rows=19")
    with pytest.raises(CapExceeded, match=r"tensor product of 4 and 5 terms needs 20 > cap 19 \(oa_rows"):
        tensor_parties(s1, s2)
    monkeypatch.setenv("KUF_CAPS", "oa_rows=20")
    assert tensor_parties(s1, s2).num_terms == 20


def test_large_tensor_cell_refused_by_oa_rows():
    # (4, 12, 11) is the tensor of the 729-term (4, 3, 11) and the
    # 4096-term (4, 4, 11) states: 2985984 terms > 2^20
    with pytest.raises(CapExceeded, match=r"tensor product of \d+ and \d+ terms needs 2985984 > cap 1048576"):
        construct_k_uniform(4, 12, 11, verify=False)


# ---------------------------------------------------------------------------
# uniformity reports


@settings(max_examples=80)
@given(
    state=st.integers(2, 5).flatmap(
        lambda N: dict_states(N=N, d=2, alphabet=2) | dict_states(N=N, d=3, alphabet=3)
    ),
)
def test_uniformity_reports_match_dict_oracle(state):
    # terms in dict order, which parsing keeps, so float sums agree bit for bit
    lines = [oracle_state_text(state).splitlines()[0]]
    for idx, amp in state.amplitudes.items():
        lines.append(" ".join(map(str, idx)) + (f" {amp[0]} {amp[1]}" if state.exact else f" {amp.real!r} {amp.imag!r}"))
    text = "\n".join(lines)
    parsed = parse_state(text)
    for k in range(1, state.N // 2 + 1):
        report = verify_k_uniform(parsed, k)
        assert report == verify_k_uniform(_array_state(state), k)
        if state.exact:
            assert report == oracle_verify_k_uniform(oracle_parse_state(text), k)


# ---------------------------------------------------------------------------
# malformed files: the same named error, line and message as the dict reader

MALFORMED = {
    "non-integer index": ("state 2 2 2 exact\n0 0 1 1\n1 x 0 1\n", ParseError, "f:3: non-integer index"),
    "float index": ("state 2 2 2 exact\n0 1.0 1 1\n", ParseError, "f:2: non-integer index"),
    "minus inside an index": ("state 2 2 2 exact\n0 0 1 1\n1-0 1 1 1\n", ParseError, "f:3: non-integer index"),
    "wrong field count": (
        "state 2 2 2 exact\n# two terms\n0 0 1 1\n1 1 1\n",
        ParseError,
        "f:4: expected 2 indices and 2 amplitude fields",
    ),
    "index out of range": ("state 2 3 2 exact\n0 0 1 0\n1 3 1 0\n", ParseError, "f:3: index out of range [0, 3)"),
    "index past int64": (
        "state 2 3 2 exact\n0 0 1 0\n1 99999999999999999999 1 0\n",
        ParseError,
        "f:3: index out of range [0, 3)",
    ),
    "negative index": ("state 2 3 2 exact\n0 -1 1 0\n", ParseError, "f:2: index out of range [0, 3)"),
    "duplicate index": (
        "state 2 2 3 exact\n0 1 1 0\n1 1 1 0\n\n0 01 1 0\n",
        ParseError,
        "f:5: duplicate index (0, 1)",
    ),
    "duplicate index, d^N past int64": (
        "state 16 16 2 exact\n" + "0 " * 16 + "1 0\n" + "1 " * 16 + "1 0\n" + "0 " * 16 + "0 1\n",
        ParseError,
        f"f:4: duplicate index {(0,) * 16}",
    ),
    "duplicate before zero amplitude": (
        "state 1 2 1 exact\n0 0 0\n1 1 0\n1 1 0\n",
        ParseError,
        "f:4: duplicate index (1,)",
    ),
    "zero amplitude": ("state 1 2 1 exact\n0 1 0\n1 0 0\n", ParseError, "f: zero amplitude stored at (1,)"),
    "malformed amplitude": ("state 1 2 1 exact\n0 1 0\n1 1e3 0\n", ParseError, "f:3: malformed amplitude"),
    "minus inside a numerator": ("state 1 2 1 exact\n0 1 0\n1 2-1 0\n", ParseError, "f:3: malformed amplitude"),
    "numerator past int64, wrong norm": (
        "state 1 2 5 exact\n0 9223372036854775808 0\n",
        NormError,
        "sum of |numerator|^2 is 85070591730234615865843651857942052864, expected r = 5",
    ),
    "numerators past int64, wrong norm": (
        "state 2 2 1 exact\n0 0 -36893488147419103232 1\n1 1 1 18446744073709551616\n",
        NormError,
        "sum of |numerator|^2 is 1701411834604692317316873037158841057282, expected r = 1",
    ),
    "nan amplitude": ("state 1 2 1 float\n0 0.6 0.0\n1 nan 0.8\n", NormError, "squared norm nan deviates from 1 beyond 1e-12"),
    "inf amplitude": ("state 1 2 1 float\n0 inf 0.0\n1 0.0 0.8\n", NormError, "squared norm inf deviates from 1 beyond 1e-12"),
    "inf and nan amplitude": ("state 1 2 1 float\n0 inf nan\n", NormError, "squared norm inf deviates from 1 beyond 1e-12"),
    "no terms": ("state 2 2 1 exact\n# nothing\n", ParseError, "f: state has no terms"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_state_files(case):
    text, error, message = MALFORMED[case]
    with pytest.raises((ParseError, NormError)) as caught:
        parse_state(text, source="f")
    assert type(caught.value) is error and str(caught.value) == message
    assert _outcome(oracle_parse_state, text, source="f") == (error.__name__, message)
