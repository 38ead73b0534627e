"""Record the reference outputs that check.py compares against.

    python3 perfbench/make_reference.py

Writes ``reference/dims.json`` (cell -> dimension, after asserting that
both dimension computations agree) and ``reference/lift.json`` (cell ->
sha256 of the canonical texts of v_k, its T image and that image's T
derivative).  The files were made once, at the commit that defined the
benchmark; rerun this only when a change is meant to alter these
outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
from check import REFERENCE, lift_digest, ssp  # noqa: E402


def main() -> int:
    dims = {}
    for m, n, p, d in corpus.dims_cells():
        line = f"{m} {n} {p} {d}"
        da, dg = ssp.as_dimension(m, n, p, d), ssp.generated_dimension(m, n, p, d)
        if da != dg:
            raise SystemExit(f"dimension mismatch at {line}: {da} != {dg}")
        dims[line] = da
    lift = {}
    for p, k, m, n in corpus.lift_cells():
        line = f"{p} {k} {m} {n}"
        v = ssp.make_v(p, k, m, n)
        image = ssp.psi(v)
        texts = [ssp.poly_to_str(v), ssp.poly_to_str(image), ssp.poly_to_str(ssp.d_dT(image))]
        lift[line] = lift_digest(texts)
    os.makedirs(REFERENCE, exist_ok=True)
    for name, table in (("dims.json", dims), ("lift.json", lift)):
        with open(os.path.join(REFERENCE, name), "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=0, sort_keys=True)
            fh.write("\n")
    print(f"{len(dims)} dimension cells, {len(lift)} lifts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
