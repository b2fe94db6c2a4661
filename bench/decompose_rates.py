"""How often the decompositions are right, refuse, or are silently wrong.

    PYTHONPATH=src python3 bench/decompose_rates.py --seed 1 --count 200

Not a workload of the benchmark: a workload must be one on which no
operation fails, and decompose_binary / decompose_quintic fail on a large
share of generic inputs.  This report runs both on inputs from the same
generator as the benchmark and grades every output with its checker, so
the rates can be followed until the decompositions are fixed and become a
workload.
"""

from __future__ import annotations

import argparse
import random
from collections import Counter

import waring
from check import check_decomposition
from gen import make_case
from workloads import HEIGHT

# (mode, nvars, degree, summands)
ROWS = [("binary", 2, d, d // 2) for d in (6, 8, 10, 12)] + [("quintic", 3, 5, 7)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=200)
    args = p.parse_args(argv)
    for mode, nv, d, r in ROWS:
        rng = random.Random(f"decompose-{mode}-{d}:{args.seed}")
        outcomes = Counter()
        for _ in range(args.count):
            case = make_case(rng, nv, d, r, HEIGHT, 0, ("cat", "yf") if nv == 3 else ("cat",))
            form = waring.HomogForm(nv, d, case.comps)
            try:
                if mode == "binary":
                    dec = waring.decompose_binary(form, r)
                else:
                    dec = waring.decompose_quintic(form)
            except waring.DecompositionError:
                outcomes["raised"] += 1
                continue
            if check_decomposition(case, dec.to_json()):
                outcomes["wrong"] += 1
            else:
                outcomes["right, exact" if dec.exact else "right, numeric"] += 1
        print(f"{mode:8s} d={d:<3d} r={r:<2d} " + ", ".join(
            f"{k} {outcomes[k]}" for k in ("right, exact", "right, numeric", "raised", "wrong")
        ) + f" (of {args.count})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
