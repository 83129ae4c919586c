#!/usr/bin/env python3
"""Per-layer diff of two traced benchmark runs.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files holding the standard output of two runs of
`perfbench/run.py ... --trace 1` (the last JSON line of each is read).
Prints one row per metric: name, base value, new value, and the ratio
new/base with its base. A metric missing on one side is marked, and a
zero base has no ratio.
"""

import json
import sys


def last_json(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip().startswith("{")]
    if not lines:
        sys.exit(f"compare: no JSON result line in {path}")
    return json.loads(lines[-1])


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.strip())
    base, new = last_json(argv[1]), last_json(argv[2])
    bm, nm = base["metrics"], new["metrics"]
    names = list(bm) + [n for n in nm if n not in bm]
    width = max(len(n) for n in names)
    print(f"{'metric':<{width}}  {'base':>14}  {'new':>14}  {'new/base':>9}  unit")
    for n in names:
        b = bm.get(n, {}).get("value")
        v = nm.get(n, {}).get("value")
        unit = (bm.get(n) or nm.get(n))["unit"]
        bs = "missing" if b is None else f"{b:.6g}"
        vs = "missing" if v is None else f"{v:.6g}"
        ratio = f"{v / b:.3f}" if b not in (None, 0) and v is not None else "-"
        print(f"{n:<{width}}  {bs:>14}  {vs:>14}  {ratio:>9}  {unit}")
    for side, r in (("base", base), ("new", new)):
        print(f"{side}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
