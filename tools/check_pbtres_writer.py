"""Check that ``save_resource`` writes every number as ``"%.17g"`` does, and
that ``load_resource``'s parser reads it back as ``np.fromstring`` does.

A seeded corpus of real numbers goes through ``save_resource`` as one FULL
and one REDUCED PBTRES file.  Every line of both files is compared with the
same numbers formatted one at a time by Python, and the numbers that
``float_text.parse_numbers`` reads from each body, a block at a time, are
compared bit for bit with ``np.fromstring(body, sep=" ")``:

    PYTHONPATH=src python tools/check_pbtres_writer.py              # 2^22 numbers
    PYTHONPATH=src python tools/check_pbtres_writer.py --full-ports 4 --reduced-ports 7

The corpus (``corpus``) holds signed zeros, nan and both infinities, the
numbers d 10^k for d = 1..9 and k = -13..1 with the two neighbours of each
power of ten among them, dyadic numbers whose 17-digit rounding is an exact tie, random bit patterns spread evenly over every binade
from the subnormals to 1e308, and log-uniform numbers in [1e-11, 1), the range
of the writer's integer route; all with both signs.  The FULL file is dense.
Each row of the REDUCED file is set to +0 entry by entry with a probability
drawn for that row, so rows from all +0 to dense are written: uniformly in
r11 and r21, and as one minus the 32nd power of a uniform number in r12 and
r22, whose rows are then mostly +0 with a dense one here and there.  The exit
code is 1 if any line or any number read back differs.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from pbtsim import float_text
from pbtsim.resources import FullResource, ReducedResource, save_resource


def dyadic_ties(count: int, rng: np.random.Generator) -> np.ndarray:
    """m / 2^k for odd m < 2^53 with m 5^k of 18 digits: x = m 5^k / 10^k then
    has 18 significant digits, the last a 5, so its 17-digit rounding is an
    exact tie.  k runs over 2..25, the only exponents with such an m."""
    ties = []
    ks = [k for k in range(2, 26) if -(-10 ** 17 // 5 ** k) <= min((10 ** 18 - 1) // 5 ** k, 2 ** 53 - 1)]
    for k in ks:
        lo, hi = -(-10 ** 17 // 5 ** k), min((10 ** 18 - 1) // 5 ** k, 2 ** 53 - 1)
        m = 2 * rng.integers(lo // 2, (hi - 1) // 2, endpoint=True, size=-(-count // len(ks))) + 1
        ties.append(m.astype(float) / 2.0 ** k)
    return np.concatenate(ties)[:count]


def corpus(size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` real numbers in random order (see the module docstring)."""
    powers = 10.0 ** np.arange(-13, 2)
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
    signed = np.concatenate([np.arange(1, 10)[:, None] * powers, np.nextafter(powers, 0),
                             np.nextafter(powers, np.inf), dyadic_ties(max(size // 100, 24), rng)], axis=None)
    bits = (size - special.size - signed.size) // 2
    signed = np.concatenate([signed, 10.0 ** rng.uniform(-11, 0, size - special.size - signed.size - bits)])
    signed *= rng.choice([-1.0, 1.0], signed.size)
    # a sign, a biased exponent of 0..2046 (0: subnormal) and 52 mantissa bits
    pattern = ((rng.integers(0, 2, bits, dtype=np.uint64) << np.uint64(63))
               | (rng.integers(0, 2047, bits, dtype=np.uint64) << np.uint64(52))
               | rng.integers(0, 2 ** 52, bits, dtype=np.uint64))
    return rng.permutation(np.concatenate([special, signed, pattern.view(float)]))


def corpus_resources(full_ports: int, reduced_ports: int,
                     rng: np.random.Generator) -> tuple[FullResource, ReducedResource]:
    """A FULL resource of dense corpus numbers, and a REDUCED one whose rows
    are +0 entry by entry with a probability drawn per row (see the module
    docstring)."""
    d_full, d = 4 ** full_ports, 2 ** reduced_ports
    values = corpus(2 * d_full ** 2 + 8 * d * d, rng)
    full = FullResource(full_ports, values[:2 * d_full ** 2].view(complex).reshape(d_full, d_full))
    blocks = values[2 * d_full ** 2:].reshape(4, d, 2 * d)
    kept = rng.random((4, d, 1)) ** np.array([1, 32, 1, 32])[:, None, None]
    blocks[rng.random(blocks.shape) >= kept] = 0.0
    return full, ReducedResource(reduced_ports, *blocks.view(complex))


def differing_lines(path: str | Path, obj: FullResource | ReducedResource) -> list[tuple[int, bytes, bytes]]:
    """(line number, written, expected) for each line of the PBTRES file at
    path that is not what per-entry ``f"{x:.17g}"`` formatting of obj gives."""
    if isinstance(obj, FullResource):
        head, mats = f"PBTRES 1\nN={obj.n}\nFORM=FULL\n", [obj.rho_ab]
    else:
        head, mats = f"PBTRES 1\nN={obj.n}\nFORM=REDUCED\n", [obj.r11, obj.r12, obj.r21, obj.r22]
    rows = ((" ".join(f"{x:.17g}" for x in np.ascontiguousarray(row).view(float).tolist()) + "\n").encode()
            for m in mats for row in m)
    expected = itertools.chain(head.encode().splitlines(keepends=True), rows)
    with open(path, "rb") as f:
        return [(number, got, want)
                for number, (got, want) in enumerate(itertools.zip_longest(f, expected, fillvalue=b""), 1)
                if got != want]


def read_back(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """The numbers of the body of a file written by save_resource, as
    load_resource's parser reads them, and as np.fromstring does."""
    with open(path, "rb") as f:
        for _ in range(3):
            f.readline()
        body = f.tell()
        parsed = float_text.parse_numbers(float_text.text_blocks(f))
        f.seek(body)
        return parsed, np.fromstring(f.read(), sep=" ")


def differing_numbers(path: str | Path) -> int:
    """How many numbers read_back's two readings do not give bit for bit
    alike; the larger count if they give different counts."""
    parsed, expected = read_back(path)
    if parsed.size != expected.size:
        return max(parsed.size, expected.size)
    return int(np.count_nonzero(parsed.view(np.uint64) != expected.view(np.uint64)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full-ports", type=int, default=5, help="ports of the FULL file (default 5)")
    parser.add_argument("--reduced-ports", type=int, default=9, help="ports of the REDUCED file (default 9)")
    parser.add_argument("--seed", type=int, default=2022)
    args = parser.parse_args(argv)
    full, reduced = corpus_resources(args.full_ports, args.reduced_ports, np.random.default_rng(args.seed))
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for form, obj in (("FULL", full), ("REDUCED", reduced)):
            path = Path(tmp) / f"{form}.pbtres"
            start = time.perf_counter()
            save_resource(path, obj)
            seconds = time.perf_counter() - start
            count = (obj.rho_ab.size if form == "FULL" else obj.joint.size) * 2
            differ = differing_lines(path, obj)
            start = time.perf_counter()
            misread = differing_numbers(path)
            print(f"{form} n={obj.n}: {count} numbers, {path.stat().st_size} bytes written in "
                  f"{seconds:.2f} s, {len(differ)} lines differ; read back and with np.fromstring "
                  f"in {time.perf_counter() - start:.2f} s, {misread} numbers differ")
            for number, got, want in differ[:3]:
                print(f"  line {number}:\n    written  {got[:200]!r}\n    expected {want[:200]!r}")
            failed |= bool(differ) or bool(misread)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
