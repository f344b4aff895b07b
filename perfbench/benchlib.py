"""Metric code of the serve-path benchmark: pure functions over the
per-job records that run.py collects, kept apart so they can be tested
without a server (test_benchlib.py)."""

import json
import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it; below that it is just the slowest few jobs.
MIN_BEYOND = 10

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(p / 100.0 * n))


def percentile(values, p):
    """Nearest-rank p-th percentile, or None unless MIN_BEYOND samples
    lie beyond it."""
    n = len(values)
    if n == 0 or samples_beyond(n, p) < MIN_BEYOND:
        return None
    return sorted(values)[max(1, math.ceil(p / 100.0 * n)) - 1]


def geomean(values):
    """Geometric mean of positive finite values (ValueError otherwise)."""
    if not values:
        raise ValueError("geomean of no values")
    for v in values:
        if not (math.isfinite(v) and v > 0):
            raise ValueError("geomean needs positive finite values, got %r" % v)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def job_failure(rec):
    """Why a served job counts as failed, or None when it succeeded.

    rec is the client's record of one job: "refused" holds the typed
    protocol error of a refused submit or wait; otherwise "status" and
    "result" are the wait reply's fields."""
    if rec.get("refused") is not None:
        return "refused: %s" % rec["refused"]
    status = rec.get("status")
    if status != "done":
        return "status %s" % status
    res = rec.get("result") or {}
    if res.get("legal") is not True:
        return "not legal"
    hpwl = res.get("hpwl")
    if not isinstance(hpwl, (int, float)) or not math.isfinite(hpwl) or hpwl <= 0:
        return "hpwl %r" % (hpwl,)
    return None


def tally(records):
    """(attempted, failed, reasons) over the jobs attempted."""
    reasons = [r for r in (job_failure(rec) for rec in records) if r]
    return len(records), len(reasons), reasons


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return math.fsum(values) / len(values) if values else 0.0


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last output line.  metrics maps name to
    (value, unit)."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()
            },
        },
        sort_keys=False,
    )


def parse_result(text):
    """Parse the last line of a run's stdout back into a dict, checking
    its shape (ValueError on any deviation)."""
    lines = [l for l in text.strip().splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    obj = json.loads(lines[-1])
    if not isinstance(obj, dict) or tuple(sorted(obj)) != tuple(sorted(RESULT_KEYS)):
        raise ValueError("result keys %r" % (sorted(obj) if isinstance(obj, dict) else obj,))
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct is not a bool")
    for k in ("attempted", "failed"):
        if not isinstance(obj[k], int) or isinstance(obj[k], bool) or obj[k] < 0:
            raise ValueError("%s is not a count" % k)
    if obj["attempted"] < 1:
        raise ValueError("attempted < 1")
    for name, m in obj["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError("metric %s malformed" % name)
        if not math.isfinite(m["value"]):
            raise ValueError("metric %s not finite" % name)
    return obj


# Top-level spans of the in-process replay; together they partition a
# job, so whatever they leave of its wall time is unaccounted.
TOP_SPANS = (
    "netlist.load",
    "kraftwerk.init",
    "kraftwerk.cluster_build",
    "kraftwerk.stop_check",
    "kraftwerk.transform",
    "kraftwerk.finish",
    "legalize.abacus",
    "legalize.improve",
    "legalize.domino",
    "route.grouter",
    "metrics.final",
)

# Spans that run before the engine starts a job's clock (its wall_s
# excludes materialization), so they are compared with the served
# latency overhead rather than with the served wall time.
PRE_WALL_SPANS = ("netlist.load", "kraftwerk.init", "kraftwerk.cluster_build")


def unaccounted_pct(replays):
    """Share of replay wall time no top-level span covers, in percent."""
    wall = math.fsum(r["wall_ms"] for r in replays)
    covered = math.fsum(
        r["spans_ms"].get(s, 0.0) for r in replays for s in TOP_SPANS
    )
    return 100.0 * (wall - covered) / wall if wall > 0 else 0.0
