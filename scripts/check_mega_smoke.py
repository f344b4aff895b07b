#!/usr/bin/env python3
"""Check the trace of the multilevel mega smoke.

Usage: python3 scripts/check_mega_smoke.py TRACE.jsonl

TRACE is the `place run --flow multilevel --trace` output of one job.
The run must have coarsened, descended level by level to the flat
netlist and legalized without overlap; each level must have compiled
its QP pattern once and reused the assembly on every later iteration.
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
    if len(argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    summary = check_run(argv[1])
    print(f"mega smoke OK: {summary['iterations']} iterations, "
          f"final hpwl {summary['final_hpwl']:.6g}")


if __name__ == "__main__":
    main(sys.argv)
