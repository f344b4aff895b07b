#!/usr/bin/env python3
"""Check the traces of the multilevel mega smoke.

Usage: python3 scripts/check_mega_smoke.py REFERENCE.jsonl OTHER.jsonl

Both files are `place run --flow multilevel --trace` outputs of the same
job, REFERENCE at --domains 1 and OTHER at another pool size.  Each run
must have coarsened, descended level by level to the flat netlist and
legalized without overlap; each level must have compiled its QP
pattern once and reused the assembly on every later iteration; the two
runs must agree bitwise on the final HPWL and on the iteration count.
Exits non-zero on the first failed check.
"""

import json
import sys


def check_run(path):
    recs = [json.loads(l) for l in open(path)]
    iters = [r for r in recs if r["record"] == "iteration"]
    summary = recs[-1]
    assert summary["record"] == "summary", summary
    assert iters, "no iteration records"
    # The V-cycle visited coarse stages and ended flat.
    levels = [r["level"] for r in iters]
    assert max(levels) >= 1, "run never coarsened"
    assert levels[-1] == 0, "run never reached the flat level"
    assert levels == sorted(levels, reverse=True), \
        "V-cycle levels must only descend"
    # One recording pass per level: every later iteration scatters into
    # (or reuses the values of) that level's compiled pattern.
    for i, r in enumerate(iters):
        at = f"{path} iteration {i} (level {r['level']})"
        assert r["pattern_rebuilds"] == 1, \
            f"{at}: pattern_rebuilds {r['pattern_rebuilds']}"
        if i > 0 and iters[i - 1]["level"] == r["level"]:
            assert r["assembly_reused"], f"{at}: assembly not reused"
    # Legal output: legalisation leaves (at most) noise overlap.
    assert summary["final_overlap"] < 1e-3, summary["final_overlap"]
    return summary


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    reference, other = check_run(argv[1]), check_run(argv[2])
    # JSON floats are %.17g, so equality here is bitwise equality.
    assert reference["final_hpwl"] == other["final_hpwl"], \
        (reference["final_hpwl"], other["final_hpwl"])
    assert reference["iterations"] == other["iterations"]
    print(f"mega smoke OK: {reference['iterations']} iterations, "
          f"final hpwl {reference['final_hpwl']:.6g}, "
          "bitwise equal across pool sizes")


if __name__ == "__main__":
    main(sys.argv)
