"""Seeded input files for the benchmark workloads.

Every state file is a state built by the library's own catalog recipes,
then moved by a seeded local change of basis: the parties are permuted and
each party's symbols are relabelled.  Both are local unitaries, so every
k-uniformity, masking and purity property the workloads check is kept,
while the bytes of every input differ from seed to seed.  The phased state
also multiplies each term by a seeded unit phase 1, i, -1 or -i; its
terms are the rows of an irredundant array, so it stays 4-uniform.

Run as a script, it writes one seed's files into a directory and exits:

    python bench/inputs.py --seed 7 --out .bench_work/inputs/seed-7
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path

# name -> (k, d, N, phased) for construct_k_uniform(k, d, N)
STATES = {
    "u4_d3_n11": (4, 3, 11, False),
    "u4_d3_n12": (4, 3, 12, False),
    "u4_d4_n11": (4, 4, 11, False),
    "u5_d3_n12": (5, 3, 12, False),
    "ph4_d3_n11": (4, 3, 11, True),
    "u2_d8_n10": (2, 8, 10, False),
    "u3_d2_n6": (3, 2, 6, False),
    "u3_d4_n6": (3, 4, 6, False),
    "u3_d5_n6": (3, 5, 6, False),
}

# unit phases i^m as Gaussian integers
_PHASES = ((1, 0), (0, 1), (-1, 0), (0, -1))

_DONE = "complete"


def _transform(state, rng: random.Random, phased: bool) -> dict:
    """Seeded party permutation, symbol relabelling and optional phases."""
    N, d = state.N, state.d
    perm = list(range(N))
    rng.shuffle(perm)
    relabel = []
    for _ in range(N):
        symbols = list(range(d))
        rng.shuffle(symbols)
        relabel.append(symbols)
    out = {}
    for idx, amp in sorted(state.amplitudes.items()):
        moved = [0] * N
        for p, x in enumerate(idx):
            moved[perm[p]] = relabel[p][x]
        if phased:
            pa, pb = _PHASES[rng.randrange(4)]
            a, b = amp
            amp = (a * pa - b * pb, a * pb + b * pa)
        out[tuple(moved)] = amp
    return out


def _state_text(N: int, d: int, r: int, amplitudes: dict) -> str:
    lines = [f"state {N} {d} {r} exact"]
    for idx in sorted(amplitudes):
        a, b = amplitudes[idx]
        lines.append(" ".join(str(x) for x in idx) + f" {a} {b}")
    return "\n".join(lines) + "\n"


def generate(seed: int, out: Path) -> None:
    """Write every state file for `seed` into `out`, marking completion."""
    from kuniform.catalog import construct_k_uniform

    out.mkdir(parents=True, exist_ok=True)
    for name, (k, d, N, phased) in STATES.items():
        state = construct_k_uniform(k, d, N, verify=False)
        rng = random.Random(f"{seed}:{name}")
        amps = _transform(state, rng, phased)
        tmp = out / f"{name}.state.tmp"
        tmp.write_text(_state_text(N, d, state.r, amps))
        os.replace(tmp, out / f"{name}.state")
    (out / _DONE).write_text(f"{seed}\n")


def is_complete(out: Path) -> bool:
    return (out / _DONE).is_file()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
