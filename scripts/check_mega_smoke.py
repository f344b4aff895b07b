#!/usr/bin/env python3
"""Check the trace and the peak memory of the multilevel mega smoke.

Usage: python3 scripts/check_mega_smoke.py TRACE.jsonl [-- PLACE_RUN...]
       python3 scripts/check_mega_smoke.py --served PLACE_EXE

TRACE is the `place run --flow multilevel --trace` output of one job.
The run must have coarsened, descended level by level to the flat
netlist and legalized without overlap; each level must have compiled
its QP pattern once and reused the assembly on every later iteration.

Given a command after `--` (a `place run` that writes TRACE), the script
runs it first, passing its output through, and also checks the run's
peak resident set (the child's `ru_maxrss`) against MAX_KIB_PER_CELL
times the `cells` count it prints.

With --served, the script runs `PLACE_EXE batch` on SERVED_JOBS, the
served shape of the V-cycle: four mega100k@0.15 fast multilevel jobs
back to back in one process, as the engine serves them.  Every job must
finish legal, and the process's peak resident set must stay under
MAX_SERVED_MIB.  A single cold job (the smoke above) cannot see this
peak: it is set by the transients of the second and later jobs.

Exits non-zero on the first failed check.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile

# Peak RSS ceiling per cell.  The CI command (mega100k at scale 1.0,
# seed 42, multilevel fast, traced; 102,500 cells) peaks at 3.42 KiB
# per cell on a 2-vCPU Linux host with OCaml 5.1.1 (3.56 without the
# collections at V-cycle descents); the ceiling leaves 11% headroom.
MAX_KIB_PER_CELL = 3.8

SERVED_JOBS = [
    {"profile": "mega100k", "scale": 0.15, "seed": seed,
     "objective": {"goal": "wirelength", "mode": "fast",
                   "flow": "multilevel"}}
    for seed in (1, 2, 3, 4)
]

# Peak RSS ceiling of the SERVED_JOBS batch, in MiB.  It peaks at 47.2
# MiB on a 2-vCPU Linux host with OCaml 5.1.1 (55.8 when coarsening
# built a hash table per cell); the ceiling leaves 10% headroom.
MAX_SERVED_MIB = 52.0


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


def run_place(cmd):
    """Run CMD, echo its output, and return (cells, peak RSS in KiB)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    assert proc.returncode == 0, f"{cmd[0]} exited {proc.returncode}"
    cells = [int(l.split()[1]) for l in proc.stdout.splitlines()
             if l.startswith("cells ")]
    assert len(cells) == 1, "no `cells` line in the run's output"
    # Linux reports ru_maxrss in KiB; the run is this script's only child.
    return cells[0], resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def check_served(place_exe):
    """Run SERVED_JOBS through `PLACE_EXE batch`; check every result and
    the batch's peak RSS."""
    with tempfile.TemporaryDirectory() as tmp:
        jobs = os.path.join(tmp, "jobs.jsonl")
        results = os.path.join(tmp, "results.jsonl")
        with open(jobs, "w") as f:
            for spec in SERVED_JOBS:
                f.write(json.dumps(spec) + "\n")
        proc = subprocess.run([place_exe, "batch", jobs, "-o", results])
        assert proc.returncode == 0, f"{place_exe} batch exited {proc.returncode}"
        lines = [json.loads(l) for l in open(results)]
    assert len(lines) == len(SERVED_JOBS), f"{len(lines)} results"
    for line in lines:
        r = line["result"]
        assert r["status"] == "done" and r["legal"], (line["source"], r)
    # Linux reports ru_maxrss in KiB; the batch is this script's only child.
    mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert mib <= MAX_SERVED_MIB, \
        f"served batch peak RSS {mib:.1f} MiB, ceiling {MAX_SERVED_MIB}"
    print(f"served smoke OK: {len(lines)} jobs, peak RSS {mib:.1f} MiB "
          f"(ceiling {MAX_SERVED_MIB})")


def main(argv):
    args = argv[1:]
    if args[:1] == ["--served"]:
        if len(args) != 2:
            sys.exit(__doc__.strip().splitlines()[3])
        check_served(args[1])
        return
    cmd = []
    if "--" in args:
        k = args.index("--")
        args, cmd = args[:k], args[k + 1:]
    if len(args) != 1 or ("--" in argv and not cmd):
        sys.exit(__doc__.strip().splitlines()[2])
    rss = run_place(cmd) if cmd else None
    summary = check_run(args[0])
    print(f"mega smoke OK: {summary['iterations']} iterations, "
          f"final hpwl {summary['final_hpwl']:.6g}")
    if rss:
        cells, kib = rss
        per_cell = kib / cells
        assert per_cell <= MAX_KIB_PER_CELL, \
            (f"peak RSS {kib} KiB is {per_cell:.2f} KiB per cell, "
             f"ceiling {MAX_KIB_PER_CELL}")
        print(f"mega smoke memory OK: peak RSS {kib / 1024:.1f} MiB, "
              f"{per_cell:.2f} KiB per cell (ceiling {MAX_KIB_PER_CELL})")


if __name__ == "__main__":
    main(sys.argv)
