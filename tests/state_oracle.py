"""Reference dict-backed states, for small systems.

DictState keeps a state as a map from index tuples to amplitudes and checks
it term by term; oracle_parse_state reads a state file one line at a time
into it, oracle_state_text formats it for saving, and oracle_tensor_parties
and oracle_inner_product loop over its terms.  This was the storage of
states.PureState before it moved to arrays; the tests hold the array-backed
state to these loops, bit for bit.  oracle_inner_product reads only N, d, r,
exact and the amplitudes mapping, so it takes PureStates too: the other
oracles decide orthogonality with it, never with the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from kuniform.errors import NormError, ParseError
from kuniform.states import NORM_TOL, InnerProduct


@dataclass
class DictState:
    """|psi> = (1 / sqrt(r)) * sum over amplitudes of (a + bi) |index>."""

    N: int
    d: int
    amplitudes: dict
    r: int = 1
    exact: bool = True
    provenance: str = field(default="", compare=False)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("state needs at least one party")
        if self.d < 1:
            raise ValueError("local dimension must be positive")
        if self.r < 1:
            raise ValueError("denominator r must be positive")
        if not self.amplitudes:
            raise ValueError("state has no terms")
        for idx, amp in self.amplitudes.items():
            if len(idx) != self.N:
                raise ValueError(f"index {idx} does not have {self.N} parties")
            if any(not 0 <= x < self.d for x in idx):
                raise ValueError(f"index {idx} out of range for d = {self.d}")
            if self.exact:
                a, b = amp
                if a == b == 0:
                    raise ValueError(f"zero amplitude stored at {idx}")
            elif amp == 0:
                raise ValueError(f"zero amplitude stored at {idx}")
        if self.exact:
            norm = sum(a * a + b * b for a, b in self.amplitudes.values())
            if norm != self.r:
                raise NormError(f"sum of |numerator|^2 is {norm}, expected r = {self.r}")
        else:
            if self.r != 1:
                raise ValueError("float states use r = 1")
            norm = sum(abs(v) ** 2 for v in self.amplitudes.values())
            if not abs(norm - 1.0) <= NORM_TOL:
                raise NormError(f"squared norm {norm!r} deviates from 1 beyond {NORM_TOL}")


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def oracle_parse_state(text: str, source: str = "<string>") -> DictState:
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(f"{source}: empty state file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 5 or parts[0] != "state":
        raise ParseError(f"{source}:{lineno}: expected header 'state N d r mode'")
    try:
        N, d, r = (int(x) for x in parts[1:4])
    except ValueError:
        raise ParseError(f"{source}:{lineno}: non-integer header field") from None
    mode = parts[4]
    if mode not in ("exact", "float"):
        raise ParseError(f"{source}:{lineno}: mode must be 'exact' or 'float'")
    exact = mode == "exact"
    amps: dict = {}
    for lineno, line in lines[1:]:
        fields = line.split()
        if len(fields) != N + 2:
            raise ParseError(f"{source}:{lineno}: expected {N} indices and 2 amplitude fields")
        try:
            idx = tuple(int(x) for x in fields[:N])
        except ValueError:
            raise ParseError(f"{source}:{lineno}: non-integer index") from None
        if any(not 0 <= x < d for x in idx):
            raise ParseError(f"{source}:{lineno}: index out of range [0, {d})")
        if idx in amps:
            raise ParseError(f"{source}:{lineno}: duplicate index {idx}")
        try:
            if exact:
                amps[idx] = (int(fields[N]), int(fields[N + 1]))
            else:
                amps[idx] = complex(float(fields[N]), float(fields[N + 1]))
        except ValueError:
            raise ParseError(f"{source}:{lineno}: malformed amplitude") from None
    try:
        return DictState(N=N, d=d, amplitudes=amps, r=r, exact=exact, provenance=source)
    except NormError:
        raise
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from None


def oracle_state_text(state) -> str:
    """The text save_state writes for `state`: terms in index order."""
    mode = "exact" if state.exact else "float"
    out = [f"state {state.N} {state.d} {state.r} {mode}"]
    for idx, amp in sorted(state.amplitudes.items()):
        head = " ".join(str(x) for x in idx)
        if state.exact:
            out.append(f"{head} {amp[0]} {amp[1]}")
        else:
            out.append(f"{head} {amp.real!r} {amp.imag!r}")
    return "\n".join(out) + "\n"


def oracle_tensor_parties(s1, s2) -> DictState:
    if s1.N != s2.N:
        raise ValueError(f"party counts differ: {s1.N} vs {s2.N}")
    d = s1.d * s2.d
    exact = s1.exact and s2.exact
    amps: dict = {}
    for idx1, a1 in s1.amplitudes.items():
        for idx2, a2 in s2.amplitudes.items():
            idx = tuple(x1 * s2.d + x2 for x1, x2 in zip(idx1, idx2))
            if exact:
                re = a1[0] * a2[0] - a1[1] * a2[1]
                im = a1[0] * a2[1] + a1[1] * a2[0]
                if re or im:
                    amps[idx] = (re, im)
            else:
                v1 = complex(a1[0], a1[1]) / math.sqrt(s1.r) if s1.exact else a1
                v2 = complex(a2[0], a2[1]) / math.sqrt(s2.r) if s2.exact else a2
                amps[idx] = v1 * v2
    return DictState(N=s1.N, d=d, amplitudes=amps, r=s1.r * s2.r if exact else 1, exact=exact)


def oracle_inner_product(s1, s2) -> InnerProduct:
    if (s1.N, s1.d) != (s2.N, s2.d):
        raise ValueError("states live on different systems")
    if s1.exact and s2.exact:
        re = im = 0
        for idx, (a1, b1) in s1.amplitudes.items():
            amp2 = s2.amplitudes.get(idx)
            if amp2 is None:
                continue
            a2, b2 = amp2
            re += a1 * a2 + b1 * b2
            im += a1 * b2 - b1 * a2
        return InnerProduct(num=(re, im), r_ket=s2.r, r_bra=s1.r, exact=True)
    total = 0j
    for idx, amp in s1.amplitudes.items():
        amp2 = s2.amplitudes.get(idx)
        if amp2 is None:
            continue
        v1 = complex(amp[0], amp[1]) / math.sqrt(s1.r) if s1.exact else amp
        v2 = complex(amp2[0], amp2[1]) / math.sqrt(s2.r) if s2.exact else amp2
        total += v1.conjugate() * v2
    return InnerProduct(num=total, r_ket=1, r_bra=1, exact=False)
