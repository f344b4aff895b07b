#!/usr/bin/env python3
"""Serve-path benchmark of the Kraftwerk placer.

Builds the placer from source, generates each workload's circuits from
--seed, starts `place serve --listen unix:...` on one compute lane and
drives it in a closed loop: every connection submits its next job only
after the previous result arrived.  With --trace 1 it also makes a
traced served pass (client-side spans per job) and replays the same
inputs in-process through each layer's public functions (tool.exe).

    python3 perfbench/run.py --workload mcnc-closed --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report (sample counts, percentiles, provenance).  Exits 1 when any
job fails or a determinism check does not hold, 2 when the program
cannot be built or started.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import socket
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as B  # noqa: E402

HERE = "perfbench"
WORK = os.path.join(HERE, "work")
PLACE = os.path.join("_build", "default", "bin", "place.exe")
TOOL = os.path.join("_build", "default", HERE, "tool.exe")
SERVER_FLAGS = ["--domains", "1", "--concurrency", "1"]
# The layers must account for all but this share of a job's wall time.
MAX_UNACCOUNTED_PCT = 5.0
# No single reply may take longer, so a hung server cannot hang a run.
IO_TIMEOUT_S = 150


class Shape:
    def __init__(self, profile, scale, goal, mode="standard", flow="flat"):
        self.profile, self.scale, self.goal = profile, scale, goal
        self.mode, self.flow = mode, flow

    @property
    def name(self):
        return "%s@%g/%s/%s/%s" % (self.profile, self.scale, self.goal, self.mode, self.flow)


# Job counts are per run and fixed by the workload and --seconds alone,
# so every run of a seed does the same work.  `jobs_per_s` is the served
# throughput the count is sized from, as measured on a 2-vCPU host.
WORKLOADS = {
    "mcnc-closed": dict(
        connections=2,
        shapes=[
            Shape("fract", 1.0, "wirelength"),
            Shape("primary1", 0.5, "wirelength"),
            Shape("struct", 0.5, "wirelength"),
            Shape("primary1", 0.5, "timing"),
        ],
        jobs_per_s=6.0,
        min_jobs=100,
        setup_repeats=3,
    ),
    "route-closed": dict(
        connections=2,
        shapes=[
            Shape("struct", 0.5, "routability"),
            Shape("primary2", 0.5, "routability"),
            Shape("biomed", 0.3, "routability"),
            Shape("biomed", 0.4, "routability"),
        ],
        jobs_per_s=1.1,
        min_jobs=20,
        setup_repeats=1,
    ),
    "mega-vcycle": dict(
        connections=1,
        shapes=[Shape("mega100k", 0.15, "wirelength", mode="fast", flow="multilevel")],
        jobs_per_s=0.15,
        min_jobs=2,
        setup_repeats=1,
    ),
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    log(msg)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Inputs


def job_count(wl, seconds):
    k = len(wl["shapes"])
    n = int(round(seconds * wl["jobs_per_s"] / k)) * k
    return max(wl["min_jobs"], n)


def circuit_seed(workload, seed, key):
    """A 52-bit generator seed per job.  Numeric.Rng streams of seeds s
    and s + 1 are offset by a single draw, so nearby seeds would give
    near-copies of one circuit; hashing keeps a run's circuits distinct."""
    h = hashlib.sha256(("%s/%d/%s" % (workload, seed, key)).encode()).digest()
    return int.from_bytes(h[:8], "big") >> 12


def plan(workload, seed, seconds, workdir):
    """The run's jobs: warm-up jobs (one per shape) and timed jobs, each
    on a distinct circuit generated from --seed."""
    wl = WORKLOADS[workload]
    shapes = wl["shapes"]

    def job(key, shape):
        path = os.path.join(workdir, key + ".ckt")
        return {
            "key": key,
            "shape": shape.name,
            "gen": {
                "file": path,
                "profile": shape.profile,
                "scale": shape.scale,
                "seed": circuit_seed(workload, seed, key),
            },
            "spec": {
                "circuit": path,
                "objective": {"goal": shape.goal, "mode": shape.mode, "flow": shape.flow},
            },
        }

    warm = [job("w%d" % k, s) for k, s in enumerate(shapes)]
    timed = [job("j%04d" % i, shapes[i % len(shapes)]) for i in range(job_count(wl, seconds))]
    return warm, timed


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)


# ---------------------------------------------------------------------------
# Server and client


class Conn:
    """One protocol connection: newline-delimited JSON, requests stamped
    with a seq and matched by its echo.  Event lines met while waiting
    for a response are skipped (only a subscribed connection gets any)."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(IO_TIMEOUT_S)
        self.sock.connect(path)
        self.rfile = self.sock.makefile("rb")
        self.seq = 0

    def send(self, obj):
        self.seq += 1
        obj = dict(obj, seq=self.seq)
        self.sock.sendall((json.dumps(obj) + "\n").encode())
        return self.seq

    def read(self):
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return time.perf_counter(), json.loads(line)

    def request(self, obj):
        seq = self.send(obj)
        while True:
            _, msg = self.read()
            if "event" not in msg and msg.get("seq") == seq:
                return msg

    def close(self):
        try:
            self.rfile.close()
            self.sock.close()
        except OSError:
            pass


class Server:
    def __init__(self, sock_path):
        self.path = sock_path
        self.log = sock_path + ".err"
        with open(self.log, "wb") as err:
            self.proc = subprocess.Popen(
                [PLACE, "serve", "--listen", "unix:" + sock_path] + SERVER_FLAGS,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
        deadline = time.monotonic() + 60
        while True:
            if self.proc.poll() is not None:
                with open(self.log) as f:
                    raise RuntimeError("server exited: %s" % f.read()[-500:])
            try:
                Conn(sock_path).close()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not listen within 60 s")
                time.sleep(0.002)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.proc.poll() is None:
            try:
                c = Conn(self.path)
                c.request({"cmd": "shutdown"})
                c.close()
                self.proc.wait(timeout=30)
            except (OSError, ConnectionError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


def run_jobs(server, jobs, connections, traced=False):
    """Closed loop: each connection submits a job, waits for its result,
    then takes the next.  Returns (records, makespan_s, cpu_s)."""
    started = {}
    if traced:
        # Lifecycle events arrive on a subscribed connection of their own;
        # a final request on it marks the end of the stream.
        sub = Conn(server.path)
        sub.request({"cmd": "subscribe"})
        end_seq = []

        def pump():
            while True:
                t, msg = sub.read()
                if msg.get("event") == "started":
                    started.setdefault(msg["id"], t)
                elif end_seq and msg.get("seq") == end_seq[0]:
                    return

        pumper = threading.Thread(target=pump)
        pumper.start()
    lock = threading.Lock()
    queue = list(jobs)
    records = []
    errors = []
    cpu0 = server.cpu_s()

    def worker():
        try:
            conn = Conn(server.path)
        except OSError as e:
            errors.append(str(e))
            return
        try:
            while True:
                with lock:
                    if not queue:
                        return
                    job = queue.pop(0)
                rec = {"key": job["key"], "shape": job["shape"]}
                rec["t_submit"] = time.perf_counter()
                ack = conn.request({"cmd": "submit", "job": job["spec"]})
                rec["t_ack"] = time.perf_counter()
                rec["seq"] = conn.seq
                if not ack.get("ok"):
                    rec["refused"] = ack.get("error")
                    rec["t_result"] = rec["t_ack"]
                else:
                    rec["id"] = ack["id"]
                    res = conn.request({"cmd": "wait", "id": ack["id"]})
                    rec["t_result"] = time.perf_counter()
                    if not res.get("ok"):
                        rec["refused"] = res.get("error")
                    else:
                        rec["status"] = res.get("status")
                        rec["result"] = res.get("result")
                    if traced:
                        t0 = time.perf_counter()
                        conn.request({"cmd": "status", "id": ack["id"]})
                        rec["rtt_ms"] = 1000 * (time.perf_counter() - t0)
                with lock:
                    records.append(rec)
        except Exception as e:  # reported after the join
            errors.append(repr(e))
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    cpu = server.cpu_s() - cpu0
    if traced:
        end_seq.append(sub.seq + 1)
        sub.send({"cmd": "jobs"})
        pumper.join()
        sub.close()
        for rec in records:
            if rec.get("id") in started:
                rec["t_started"] = started[rec["id"]]
    if errors:
        raise RuntimeError("client: " + "; ".join(errors))
    makespan = max(r["t_result"] for r in records) - min(r["t_submit"] for r in records)
    records.sort(key=lambda r: r["key"])
    return records, makespan, cpu


# ---------------------------------------------------------------------------
# Provenance and determinism records


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def git_revision():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def check_record(key, values):
    """Deterministic outputs must repeat across runs of one seed with the
    same binary: the first run records them, later runs compare."""
    path = os.path.join(WORK, "records", key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
        return [
            "%s: %r, earlier run %r" % (k, v, old.get(k))
            for k, v in values.items()
            if old.get(k) != v
        ]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_json(path, values)
    return []


# ---------------------------------------------------------------------------
# Metrics


def served_summary(records):
    done = [r for r in records if B.job_failure(r) is None]
    lat = [1000 * (r["t_result"] - r["t_submit"]) for r in records]
    hpwls = [r["result"]["hpwl"] for r in done]
    overflow = [r["result"].get("routed_overflow") for r in done]
    shapes = {}
    for r in done:
        row = shapes.setdefault(r["shape"], {"jobs": 0, "iterations": [], "wall_ms": []})
        row["jobs"] += 1
        row["iterations"].append(r["result"]["iterations"])
        row["wall_ms"].append(round(1000 * r["result"]["wall_s"], 3))
    return {
        "jobs": len(records),
        "iterations_total": sum(r["result"]["iterations"] for r in done),
        "per_shape": shapes,
        "latency_samples": len(lat),
        "latency_p50_ms": B.percentile(lat, 50),
        "latency_p90_ms": B.percentile(lat, 90),
        "latency_p99_ms": B.percentile(lat, 99),
        "hpwl_geomean": B.geomean(hpwls) if hpwls and len(done) == len(records) else None,
        "routed_overflow_total": (
            math.fsum(o for o in overflow if o is not None)
            if any(o is not None for o in overflow)
            else None
        ),
    }


def layer_metrics(traced, replays, cold, untraced_makespan, traced_makespan, cpu_s):
    """The --trace 1 metrics: client-side spans of the traced served pass,
    then the in-process replay's per-layer split (means per job).  Memory
    growth by phase comes from `cold`, the first job the replay process
    ran: later jobs reuse the heap it grew."""
    n = len(traced)
    # The started event and the submit ack travel on different
    # connections; a wait is never negative.
    wait = lambda r: max(0.0, r["t_started"] - r["t_ack"])
    waits = [1000 * wait(r) for r in traced if "t_started" in r]
    walls = [1000 * r["result"]["wall_s"] for r in traced if r.get("result")]
    over = [
        1000 * (r["t_result"] - r["t_submit"] - wait(r) - r["result"]["wall_s"])
        for r in traced
        if "t_started" in r and r.get("result")
    ]
    _, failed, _ = B.tally(traced)
    span = lambda name: B.mean([r["spans_ms"].get(name, 0.0) for r in replays])
    reg = lambda name: B.mean([r["registry_ms"].get(name, 0.0) for r in replays])
    words = lambda names: B.mean(
        [math.fsum(r["alloc_words"].get(s, 0.0) for s in names) for r in replays]
    ) / 1e6
    sub_layers = [
        "qp.assemble", "density.forces", "numeric.cg", "kraftwerk.metrics",
        "kraftwerk.ub_probe", "kraftwerk.congest",
    ]
    transform_self = B.mean(
        [
            r["spans_ms"].get("kraftwerk.transform", 0.0)
            - math.fsum(r["registry_ms"].get(s, 0.0) for s in sub_layers)
            - r["spans_ms"].get("timing.reweight", 0.0)
            for r in replays
        ]
    )
    in_wall = [
        math.fsum(v for k, v in r["spans_ms"].items() if k in B.TOP_SPANS and k not in B.PRE_WALL_SPANS)
        for r in replays
    ]
    timing = [r for r, t in zip(replays, traced) if "/timing/" in t["shape"]]
    probe = max((r["poisson"] for r in replays), key=lambda p: p["rows"] * p["cols"])
    m = {
        "server.rtt_ms": (B.median([r["rtt_ms"] for r in traced if "rtt_ms" in r]), "ms"),
        "server.cpu_s": (cpu_s, "s"),
        "engine.queue_wait_ms": (B.mean(waits), "ms"),
        "engine.job_wall_ms": (B.mean(walls), "ms"),
        "engine.overhead_ms": (B.mean(over), "ms"),
        "engine.jobs_attempted": (n, "count"),
        "engine.jobs_failed": (failed, "count"),
        "netlist.load_ms": (span("netlist.load"), "ms"),
        "kraftwerk.iterations": (B.mean([r["iterations"] for r in replays]), "count"),
        "kraftwerk.init_ms": (span("kraftwerk.init"), "ms"),
        "kraftwerk.cluster_build_ms": (span("kraftwerk.cluster_build"), "ms"),
        "kraftwerk.descents": (B.mean([r["descents"] for r in replays]), "count"),
        "kraftwerk.transform_ms": (span("kraftwerk.transform"), "ms"),
        "kraftwerk.transform_self_ms": (transform_self, "ms"),
        "kraftwerk.stop_check_ms": (span("kraftwerk.stop_check"), "ms"),
        "kraftwerk.finish_ms": (span("kraftwerk.finish"), "ms"),
        "kraftwerk.metrics_ms": (reg("kraftwerk.metrics"), "ms"),
        "kraftwerk.ub_probe_ms": (reg("kraftwerk.ub_probe"), "ms"),
        "kraftwerk.congest_ms": (reg("kraftwerk.congest"), "ms"),
        "qp.assemble_ms": (reg("qp.assemble"), "ms"),
        "qp.refill_ms": (reg("qp.refill"), "ms"),
        "numeric.cg_iterations": (B.mean([r["cg_iterations"] for r in replays]), "count"),
        "numeric.cg_ms": (reg("numeric.cg"), "ms"),
        "density.forces_ms": (reg("density.forces"), "ms"),
        "numeric.poisson_ms": (probe["call_ms"], "ms"),
        "numeric.poisson_grid_bins": (probe["rows"] * probe["cols"], "count"),
        "numeric.poisson_calls": (B.mean([r["density_calls"] for r in replays]), "count"),
        "numeric.poisson_mflop_computed": (probe["mflop_computed"], "Mflop"),
        "numeric.poisson_mbytes_computed": (probe["mbytes_computed"], "MB"),
        "legalize.abacus_ms": (span("legalize.abacus"), "ms"),
        "legalize.improve_ms": (span("legalize.improve"), "ms"),
        "legalize.domino_ms": (span("legalize.domino"), "ms"),
        "legalize.domino_moves": (B.mean([r["domino_moves"] for r in replays]), "count"),
        "route.grouter_ms": (span("route.grouter"), "ms"),
        "route.failed_nets": (math.fsum(r["failed_nets"] or 0 for r in replays), "count"),
        "route.routed_overflow_total": (math.fsum(r["routed_overflow"] or 0 for r in replays), "tracks"),
        "timing.sta_ms": (span("timing.sta"), "ms"),
        "timing.reweight_ms": (span("timing.reweight"), "ms"),
        "metrics.final_ms": (span("metrics.final"), "ms"),
        "mem.alloc_mwords.netlist": (words(["netlist.load"]), "Mwords"),
        "mem.alloc_mwords.kraftwerk_build": (words(["kraftwerk.init", "kraftwerk.cluster_build"]), "Mwords"),
        "mem.alloc_mwords.kraftwerk_loop": (words(["kraftwerk.transform", "kraftwerk.stop_check", "kraftwerk.finish"]), "Mwords"),
        "mem.alloc_mwords.legalize": (words(["legalize.abacus", "legalize.improve", "legalize.domino"]), "Mwords"),
        "mem.alloc_mwords.route": (words(["route.grouter"]), "Mwords"),
        "mem.rss_after_cluster_mb": (cold["rss_mb"]["cluster"], "MB"),
        "mem.rss_after_place_mb": (cold["rss_mb"]["place"], "MB"),
        "mem.rss_after_legalize_mb": (cold["rss_mb"]["legalize"], "MB"),
        "trace.unaccounted_pct": (B.unaccounted_pct(replays), "%"),
        "trace.timing_unaccounted_pct": (B.unaccounted_pct(timing) if timing else 0.0, "%"),
        "trace.replay_vs_served_pct": (
            100.0 * (math.fsum(in_wall) - math.fsum(walls)) / math.fsum(walls) if walls else 0.0,
            "%",
        ),
        "trace.overhead_pct": (100.0 * (traced_makespan - untraced_makespan) / untraced_makespan, "%"),
    }
    return m


def shape_split(traced, replays):
    """Per job shape: mean served wall time and the replay's top-level
    spans (ms per job), for the recorded per-layer split."""
    out = {}
    for t, r in zip(traced, replays):
        row = out.setdefault(t["shape"], {"jobs": 0, "served_wall_ms": 0.0, "replay_wall_ms": 0.0})
        row["jobs"] += 1
        row["served_wall_ms"] += 1000 * (t.get("result") or {}).get("wall_s", 0.0)
        row["replay_wall_ms"] += r["wall_ms"]
        for k in B.TOP_SPANS:
            row[k] = row.get(k, 0.0) + r["spans_ms"].get(k, 0.0)
    for row in out.values():
        for k in row:
            if k != "jobs":
                row[k] /= row["jobs"]
    return out


# ---------------------------------------------------------------------------
# Main


def setup(warm, timed, workdir, sock):
    """Generate inputs, start the server, run the warm-up pass.  Returns
    (server, seconds)."""
    t0 = time.perf_counter()
    manifest = os.path.join(workdir, "gen.json")
    write_json(manifest, {"jobs": [j["gen"] for j in warm + timed]})
    out = subprocess.run([TOOL, "gen", manifest], capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError("gen: " + out.stderr[-500:])
    server = Server(sock)
    try:
        records, _, _ = run_jobs(server, warm, 1)
    except Exception:
        server.stop()
        raise
    _, failed, reasons = B.tally(records)
    if failed:
        server.stop()
        raise RuntimeError("warm-up job failed: %s" % reasons)
    return server, time.perf_counter() - t0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "place.ml"))):
        fail_setup("run from the repository root (no dune-project / bin/place.ml here)")
    build = subprocess.run(
        # No shared cache: a run writes nothing outside the checkout.
        ["dune", "build", "--root", ".", "--cache=disabled", "./bin/place.exe", "./%s/tool.exe" % HERE],
        capture_output=True,
        text=True,
    )
    if build.returncode != 0:
        fail_setup("build failed:\n" + build.stderr[-2000:])

    wl = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    sock = os.path.join(workdir, "s.sock")
    warm, timed = plan(args.workload, args.seed, args.seconds, workdir)
    server = None
    try:
        setups = []
        for _ in range(wl["setup_repeats"]):
            if server:
                server.stop()
            server, dt = setup(warm, timed, workdir, sock)
            setups.append(dt)
        records, makespan, cpu = run_jobs(server, timed, wl["connections"])
        traced = replays = cold = None
        if args.trace:
            traced, traced_makespan, traced_cpu = run_jobs(
                server, timed, wl["connections"], traced=True
            )
        peak_rss = server.peak_rss_mb()
        server.stop()
        server = None
        if args.trace:
            manifest = os.path.join(workdir, "replay.json")
            out_path = os.path.join(workdir, "replay.out.json")
            write_json(manifest, {"jobs": [{"key": j["key"], "spec": j["spec"]} for j in warm + timed]})
            out = subprocess.run([TOOL, "replay", manifest, out_path], capture_output=True, text=True)
            if out.returncode != 0:
                raise RuntimeError("replay: " + out.stderr[-500:])
            with open(out_path) as f:
                by_key = {j["key"]: j["result"] for j in json.load(f)["jobs"]}
            replays = [by_key[r["key"]] for r in traced]
            cold = by_key[warm[0]["key"]]
    except Exception as e:  # the program could not be driven at all
        if server:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        fail_setup("%s: %s" % (type(e).__name__, e))
    shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, reasons = B.tally(records)
    summary = served_summary(records)
    problems = list(reasons)
    if summary["hpwl_geomean"] is None:
        problems.append("no quality figure: some job failed")
    bin_digest = digest(PLACE)
    inputs = hashlib.sha256(
        json.dumps(
            [[j["gen"]["profile"], j["gen"]["scale"], j["gen"]["seed"], j["spec"]["objective"]] for j in timed]
        ).encode()
    ).hexdigest()
    record_key = "%s-seed%d-%s-%s" % (args.workload, args.seed, inputs[:12], bin_digest[:12])
    problems += check_record(
        record_key,
        {
            "hpwl_geomean": summary["hpwl_geomean"],
            "routed_overflow_total": summary["routed_overflow_total"],
        },
    )
    if args.trace:
        by_key = {r["key"]: r for r in records}
        for t, rep in zip(traced, replays):
            served = by_key[t["key"]].get("result") or {}
            if B.job_failure(t):
                problems.append("traced %s: %s" % (t["key"], B.job_failure(t)))
            elif t["result"]["hpwl"] != served.get("hpwl"):
                problems.append("traced %s: hpwl %r != untraced %r" % (t["key"], t["result"]["hpwl"], served.get("hpwl")))
            if rep["hpwl"] != served.get("hpwl") or not rep["legal"]:
                problems.append("replay %s: hpwl %r != served %r" % (t["key"], rep["hpwl"], served.get("hpwl")))

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "domains": 1,
        "connections": wl["connections"],
        "server_flags": SERVER_FLAGS,
        "git_revision": git_revision(),
        "place_exe_sha256": bin_digest,
        "jobs_per_shape": {s.name: sum(1 for j in timed if j["shape"] == s.name) for s in wl["shapes"]},
        "setup_s_samples": setups,
        "makespan_s": makespan,
        "server_cpu_s": cpu,
        "peak_rss_mb": peak_rss,
        "served": summary,
        "problems": problems,
    }
    if args.trace:
        metrics = layer_metrics(traced, replays, cold, makespan, traced_makespan, traced_cpu)
        unaccounted = metrics["trace.unaccounted_pct"][0]
        if unaccounted > MAX_UNACCOUNTED_PCT:
            problems.append("trace leaves %.2f%% of job wall time unaccounted" % unaccounted)
        report["layers"] = {k: v for k, (v, _) in metrics.items()}
        report["layers_by_shape"] = shape_split(traced, replays)
        spans = os.path.join(WORK, "traces", "%s-seed%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        write_json(spans, {"served": traced, "replay": dict(zip((t["key"] for t in traced), replays))})
        report["spans_file"] = spans
        attempted += len(traced)
        failed += sum(1 for t in traced if B.job_failure(t))
    else:
        metrics = {
            "setup_s": (B.median(setups), "s"),
            "makespan_s": (makespan, "s"),
            "hpwl_geomean": (summary["hpwl_geomean"] or 0.0, "length"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    correct = not problems
    line = B.result_line(correct, attempted, failed, metrics)
    B.parse_result(line)  # the output contract, checked before printing
    print(json.dumps(report))
    print(line)
    for p in problems:
        log("check failed: " + p)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
