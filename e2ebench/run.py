#!/usr/bin/env python3
"""End-to-end benchmark of wikimatch: build, serve and refresh.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload {build,serve,refresh} --seed N \
        --seconds S --trace {0,1} [--threads T] [--net-threads N]
        [--refresh-net-threads N]

The first run builds the CLI and e2e_tool into .bench_build/e2ebench.
Inputs are made from --seed by e2e_tool; the program under test only sees
MediaWiki XML dumps, delta dumps and protocol lines. Human-readable report
lines go first; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a traced in-process replay
(spans are written to .bench_build/e2ebench/traces/). See README.md.
"""

import argparse
import glob
import json
import os
import platform
import re
import signal
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WIKIMATCH = os.path.join(BUILD, "wikimatch", "src", "cli", "wikimatch")
TOOL = os.path.join(BUILD, "e2e_tool")

# Workload parameters. The rate ladder and its reference rate are fixed
# here so every run, on every commit, offers the same load.
# One corpus for every run (the generator's default seed, the stand-in for
# one Wikipedia snapshot); --seed draws the dump page order, the request
# mix and the delta stream.
CORPUS_SEED = 20111030
BUILD_SCALE = 0.1
SERVE_SCALE = 1.0
# Smaller than serve's so a window holds enough edit batches for a steady
# median: one delta-to-visible cycle at 1.0 takes ~3 s, and single cycles
# vary by 10-20% on a shared host.
REFRESH_SCALE = 0.3
SCALES = {"build": BUILD_SCALE, "serve": SERVE_SCALE,
          "refresh": REFRESH_SCALE}
# The serve window: CLOSED_SHARE closed loop on one connection (the
# latency metrics), then REFERENCE_SHARE open loop at REFERENCE_RPS, then
# the ladder. The closed loop gets lines for CLOSED_MAX_RPS; the query
# stream holds ~15k distinct lines, so it never repeats within that.
CLOSED_SHARE = 0.6
CLOSED_MAX_RPS = 3000
REFERENCE_SHARE = 0.2
REFERENCE_RPS = 200
LADDER_RPS = [500, 1000, 2000, 4000]
WARMUP_RPS = 2000
P99_LIMIT_MS = 20.0
REFRESH_BACKGROUND_RPS = 200
BACKGROUND_MAX_S = 60
CONNS = 4
SETUP_BOOTS = 5
MIN_BUILDS = 3
MIN_REFRESHES = 4
TRACE_SERVE_REQUESTS = 2000
TRACE_REFRESH_BATCHES = 4

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "tail_ms": "ms",
    "rss_mb": "MB",
    "match_f": "F",
}

PER_LAYER = [
    ("wiki.read_dump_ms", "ms"), ("wiki.dump_bytes", "bytes"),
    ("wiki.pages", "count"), ("wiki.parse_ms", "ms"),
    ("wiki.finalize_ms", "ms"), ("wiki.self_ms", "ms"),
    ("match.dictionary_ms", "ms"), ("match.run_ms", "ms"),
    ("match.type_match_ms", "ms"), ("match.schema_ms", "ms"),
    ("match.lsi_ms", "ms"), ("match.feature_ms", "ms"),
    ("match.order_ms", "ms"), ("match.integrate_ms", "ms"),
    ("match.pairs_generated", "count"), ("match.pairs_pruned", "count"),
    ("match.postings_visited", "count"), ("match.self_ms", "ms"),
    ("store.write_ms", "ms"), ("store.bytes", "bytes"),
    ("store.read_ms", "ms"), ("store.map_ms", "ms"), ("store.self_ms", "ms"),
    ("serve.core_ms", "ms"),
] + [
    ("serve.%s.%s_us.%s" % (verb, kind, q), "us")
    for verb in ("attr", "alignments", "query", "sync")
    for kind in ("hit", "miss") for q in ("p50", "p99")
] + [
    ("serve.cache_hit_ratio", "ratio"), ("serve.inprocess_us.p50", "us"),
    ("serve.reload_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("query.translated_eval_us", "us"), ("query.self_ms", "ms"),
    ("net.overhead_us", "us"), ("net.shed", "count"),
    ("net.gen_late_ms", "ms"), ("net.max_rps", "1/s"),
    ("ingest.from_snapshot_ms", "ms"), ("ingest.apply_ms", "ms"),
    ("ingest.apply_align_ms", "ms"), ("ingest.units_recomputed", "count"),
    ("ingest.units_total", "count"), ("ingest.self_ms", "ms"),
    ("sync.resync_ms", "ms"), ("sync.dirty_articles", "count"),
    ("sync.run_ms", "ms"), ("sync.self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
]


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- build --

def build_program():
    """Configures and builds the CLI and e2e_tool; a no-op when current."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    # The Makefile exists only after a configure that succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "wikimatch", "e2e_tool"])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def host_block():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler, build_type = "", ""
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        compiler = "%s %s" % (cid.group(1) if cid else "?",
                              ver.group(1) if ver else "?")
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
            build_type = m.group(1) if m else ""
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": build_type, "kernel": platform.release()}


# ------------------------------------------------------------ processes --

class Processes:
    """Every child this run starts; all are stopped and reaped at exit."""

    def __init__(self):
        self.children = []

    def start(self, cmd, **kwargs):
        proc = subprocess.Popen(cmd, **kwargs)
        self.children.append(proc)
        return proc

    def stop(self, proc, timeout=10.0):
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def stop_all(self):
        for proc in self.children:
            self.stop(proc)


def run_timed(cmd, stdout_path):
    """Runs cmd to completion; returns (wall seconds, peak RSS MB)."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(stdout_path, "rb") as f:
            sys.stderr.write(f.read()[-2000:].decode("utf-8", "replace"))
        raise BenchError("%s exited %d" % (cmd[1], proc.returncode))
    return wall, usage.ru_maxrss / 1024.0


def tool(*args):
    """Runs e2e_tool and returns its last stdout line as JSON."""
    proc = subprocess.run([TOOL] + [str(a) for a in args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        raise BenchError("e2e_tool %s exited %d" % (args[0], proc.returncode))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


class Client:
    """One protocol connection: a request line in, one framed response out."""

    def __init__(self, port, timeout=60.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout)
        self.buf = b""

    def request(self, line):
        self.sock.sendall(line.encode() + b"\n")
        while True:
            head_end = self.buf.find(b"\n")
            if head_end >= 0:
                head = self.buf[:head_end].decode()
                need = int(head.split()[1]) if head.startswith("ok ") else 0
                end = head_end
                for _ in range(need):
                    end = self.buf.find(b"\n", end + 1)
                    if end < 0:
                        break
                if end >= 0:
                    resp, self.buf = self.buf[:end + 1], self.buf[end + 1:]
                    return resp.decode()
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError("server closed the connection")
            self.buf += chunk

    def close(self):
        self.sock.close()


def boot_server(procs, snapshot, args, net_threads, work, probe_line):
    """Starts `serve --listen 0`; returns (proc, port, seconds from start
    to the first data answer, that answer)."""
    err_path = os.path.join(work, "serve.%d.err" % len(procs.children))
    err = open(err_path, "w")
    start = time.perf_counter()
    proc = procs.start([WIKIMATCH, "serve", "--snapshot", snapshot,
                        "--listen", "0", "--threads", str(args.threads),
                        "--net-threads", str(net_threads)],
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=err)
    err.close()
    port = None
    while port is None:
        if proc.poll() is not None:
            raise BenchError("serve exited %d" % proc.returncode)
        with open(err_path) as f:
            m = re.search(r"listening on [\d.]+:(\d+)", f.read())
        if m:
            port = int(m.group(1))
        else:
            time.sleep(0.0005)
    client = Client(port)
    answer = client.request(probe_line)
    setup = time.perf_counter() - start
    client.close()
    return proc, port, setup, answer


def cache_counts(port):
    """(hits, misses) from the server's `stats` verb."""
    client = Client(port)
    stats = client.request("stats")
    client.close()
    hits = re.search(r"cache_hits=(\d+)", stats)
    misses = re.search(r"cache_misses=(\d+)", stats)
    if not hits or not misses:
        raise BenchError("stats without cache counters")
    return int(hits.group(1)), int(misses.group(1))


def hit_ratio(before, after):
    hits, misses = after[0] - before[0], after[1] - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


def peak_rss_mb(pid):
    """Peak RSS so far of a running process. Steadier than the current RSS,
    which moves with what the allocator has handed back by then."""
    with open("/proc/%d/status" % pid) as f:
        m = re.search(r"VmHWM:\s+(\d+) kB", f.read())
    return int(m.group(1)) / 1024.0


def boot_setups(procs, snapshot, args, work, probe_line, checks,
                net_threads=None):
    """SETUP_BOOTS fresh servers; all but the last are stopped. Returns
    (last proc, its port, median set-up seconds, all set-ups)."""
    setups, answers = [], []
    for i in range(SETUP_BOOTS):
        proc, port, setup, answer = boot_server(
            procs, snapshot, args, net_threads or args.net_threads, work,
            probe_line)
        setups.append(setup)
        answers.append(os.path.join(work, "boot_%d.answer" % i))
        with open(answers[-1], "w") as f:
            f.write(answer)
        if i + 1 < SETUP_BOOTS:
            procs.stop(proc)
    probe = tool("check-probe", "--snapshot", snapshot, "--probe", probe_line,
                 "--answers", ",".join(answers))
    checks.append(("every boot's first answer equals in-process Handle",
                   probe["answers"] == SETUP_BOOTS and
                   probe["mismatched"] == 0))
    return proc, port, statistics.median(setups), setups


# ------------------------------------------------------------- workloads --

def workload_build(args, work, procs, report, checks):
    gen = tool("gen-dumps", "--corpus-seed", CORPUS_SEED, "--seed", args.seed,
               "--scale", BUILD_SCALE, "--out", work)
    report["input"] = gen
    dumps = ["--dump", "en=" + os.path.join(work, "enwiki.xml"),
             "--dump", "pt=" + os.path.join(work, "ptwiki.xml"),
             "--dump", "vi=" + os.path.join(work, "viwiki.xml")]
    walls, rsses, snaps = [], [], []
    window_end = time.perf_counter() + args.seconds
    while len(walls) < MIN_BUILDS or time.perf_counter() < window_end:
        snap = os.path.join(work, "build_%d.snap" % len(walls))
        wall, rss = run_timed(
            [WIKIMATCH, "build-snapshot"] + dumps +
            ["--pair", "pt:en", "--pair", "vi:en", "--out", snap,
             "--threads", str(args.threads)],
            os.path.join(work, "build.log"))
        walls.append(wall)
        rsses.append(rss)
        snaps.append(snap)
    results = [tool("check-build", "--snapshot", s, "--corpus-seed",
                    CORPUS_SEED, "--scale", BUILD_SCALE) for s in snaps]
    digests = sorted(set(r["digest"] for r in results))
    checks.append(("clusters+processed_order digest equal across %d builds"
                   % len(results), len(digests) == 1))
    checks.append(("match_f equal across builds",
                   len(set(r["match_f"] for r in results)) == 1))
    checks.append(("all 18 type pairs evaluated",
                   all(r["types"] == 18 for r in results)))
    probe = "alignments pt:en film"
    proc, _, setup, setups = boot_setups(procs, snaps[0], args, work, probe,
                                         checks)
    procs.stop(proc)
    report.update({
        "build_s": statistics.median(walls), "build_runs_s": walls,
        "build_rss_mb": statistics.median(rsses), "match_f": results[0],
        "digest": digests, "setup_runs_s": setups})
    metrics = {
        "setup_s": setup,
        "latency_p50_ms": statistics.median(walls) * 1000.0,
        "tail_ms": max(walls) * 1000.0,
        "rss_mb": statistics.median(rsses),
        "match_f": results[0]["match_f"],
    }
    attempted = len(walls) + len(results) + SETUP_BOOTS
    return metrics, attempted, 0


def max_rps(steps):
    """Highest ladder rate whose p99 meets the limit with every request
    answered and no backlog left at the end of the step."""
    best = 0.0
    for s in steps:
        if (s["failed"] == 0 and s["p99_ms"] <= P99_LIMIT_MS and
                s["backlog_end"] <= s["rate"] * P99_LIMIT_MS / 1000.0):
            best = max(best, s["rate"])
    return best


def workload_serve(args, work, procs, report, checks):
    closed_s = args.seconds * CLOSED_SHARE
    ref_s = args.seconds * REFERENCE_SHARE
    step_s = args.seconds * (1 - CLOSED_SHARE - REFERENCE_SHARE) / len(
        LADDER_RPS)
    closed_lines = int(CLOSED_MAX_RPS * closed_s)
    total = int(closed_lines + REFERENCE_RPS * ref_s +
                sum(LADDER_RPS) * step_s) + 1000
    gen = tool("gen-serve", "--corpus-seed", CORPUS_SEED, "--seed", args.seed,
               "--scale", SERVE_SCALE,
               "--out", work, "--threads", args.threads,
               "--requests", total)
    report["input"] = gen
    snapshot = os.path.join(work, "serve.snap")
    requests = os.path.join(work, "requests.txt")
    with open(requests) as f:
        first_line = f.readline().rstrip("\n")
    proc, port, setup, setups = boot_setups(procs, snapshot, args, work,
                                            first_line, checks)
    # An untimed warm-up puts every attr, alignments and sync key in the
    # cache once; the measured steps then run the sequence from its start.
    warm = os.path.join(work, "warm.txt")
    with open(warm) as f:
        warm_count = sum(1 for _ in f)
    tool("loadgen", "--port", port, "--requests", warm, "--spin",
         "--rates", WARMUP_RPS, "--step-s", warm_count / WARMUP_RPS,
         "--conns", CONNS)
    counts_before = cache_counts(port)
    # The latency metrics: one user, one request at a time. With no queue
    # in front of it, a request's latency is its own cost plus the round
    # trip, and does not depend on how the server's event loops happened
    # to split the connections.
    closed = tool("loadgen", "--port", port, "--requests", requests, "--spin",
                  "--closed", "--rates", 0, "--step-s", closed_s,
                  "--conns", 1, "--verify", snapshot)
    offset = closed["attempted"]
    ref = tool("loadgen", "--port", port, "--requests", requests, "--spin",
               "--offset", offset, "--rates", REFERENCE_RPS,
               "--step-s", ref_s, "--conns", CONNS, "--verify", snapshot)
    offset += int(REFERENCE_RPS * ref_s)
    result = tool("loadgen", "--port", port, "--requests", requests, "--spin",
                  "--offset", offset,
                  "--rates", ",".join(str(r) for r in LADDER_RPS),
                  "--step-s", step_s, "--conns", CONNS,
                  "--verify", snapshot)
    server_rss = peak_rss_mb(proc.pid)
    cache_hit_ratio = hit_ratio(counts_before, cache_counts(port))
    procs.stop(proc)
    runs = (closed, ref, result)
    checks.append(("every TCP response byte-equal to in-process Handle",
                   all(r["mismatched"] == 0 and r["torn"] == 0
                       for r in runs)))
    ref_loadgen = {k: v for k, v in ref.items() if k != "steps"}
    ref = ref["steps"][0]
    closed_step = closed["steps"][0]
    report.update({
        "setup_runs_s": setups, "ladder": result["steps"],
        "closed": closed_step,
        # Past its line budget the closed loop leaves the open-loop steps
        # too few lines: they wrap round to lines already sent (cache hits).
        "closed_over_budget": closed["attempted"] > closed_lines,
        "reference_rps": REFERENCE_RPS,
        "p99_limit_ms": P99_LIMIT_MS,
        "serve_p50_ms": ref["p50_ms"], "serve_p99_ms": ref["p99_ms"],
        "serve_max_rps": max_rps([ref] + result["steps"]),
        "serve_rss_mb": server_rss, "reference": ref,
        "cache_hit_ratio": cache_hit_ratio,
        "loadgen": {k: v for k, v in result.items() if k != "steps"},
        "reference_loadgen": ref_loadgen})
    metrics = {
        "setup_s": setup,
        "latency_p50_ms": closed_step["verbs"]["query"]["p50_ms"],
        "tail_ms": closed_step["verbs"]["query"]["p95_ms"],
        "rss_mb": server_rss,
        "match_f": gen["match_f"],
    }
    attempted = sum(r["attempted"] for r in
                    (closed, ref_loadgen, result)) + SETUP_BOOTS
    failed = sum(r["failed"] for r in (closed, ref_loadgen, result))
    return metrics, attempted, failed


def reader_stalls(record, reloads):
    """For each reload, the longest a background reader waited among the
    requests due while the reload was in flight (the loop that decodes the
    new generation answers nobody else meanwhile). A figure per reload, so
    it does not depend on how many reloads fit in the window."""
    with open(record) as f:
        rows = [(int(due), float(ms)) for due, ms in
                (line.split() for line in f)]
    stalls = []
    for start, end in reloads:
        waits = [ms for due, ms in rows if start <= due <= end]
        if not waits:
            raise BenchError("no background request during a reload")
        stalls.append(max(waits))
    return stalls


def workload_refresh(args, work, procs, report, checks):
    batches = 40
    background = int(REFRESH_BACKGROUND_RPS * BACKGROUND_MAX_S)
    gen = tool("gen-serve", "--corpus-seed", CORPUS_SEED, "--seed", args.seed,
               "--scale", REFRESH_SCALE,
               "--out", work, "--threads", args.threads,
               "--requests", background, "--deltas", batches)
    report["input"] = gen
    kinds = gen["delta_kinds"]
    snapshot = os.path.join(work, "serve.snap")
    requests = os.path.join(work, "requests.txt")
    probe = "sync-status"
    # One event loop: `reload` decodes on the loop that received it, so
    # every background reader sees the stall, not a random share of them.
    proc, port, setup, setups = boot_setups(procs, snapshot, args, work,
                                            probe, checks,
                                            args.refresh_net_threads)
    # Every generation goes to a new path and is reloaded by path; the
    # served file is never rewritten in place.
    generations = [os.path.join(work, "gen_%d.snap" % k)
                   for k in range(1, batches + 1)]
    # Background traffic lasts until the refresh loop closes its stdin.
    record = os.path.join(work, "background.txt")
    loadgen = procs.start(
        [TOOL, "loadgen", "--port", str(port), "--requests", requests,
         "--rates", str(REFRESH_BACKGROUND_RPS), "--step-s",
         str(BACKGROUND_MAX_S), "--conns", str(CONNS), "--stop-on-eof",
         "--verify", ",".join([snapshot] + generations), "--probe", probe,
         "--record", record],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    counts_before = cache_counts(port)
    control = Client(port)
    refresh_s, delta_rss, cycles, reloads = [], [], [], []
    current = snapshot
    window_end = time.perf_counter() + args.seconds
    k = 0
    # Past the minimum, a batch starts only if it should end in the window.
    while k < batches and (k < MIN_REFRESHES or time.perf_counter() +
                           statistics.median(refresh_s) < window_end):
        cmd = [WIKIMATCH, "apply-delta", "--snapshot", current,
               "--out", generations[k], "--threads", str(args.threads)]
        for lang in ("en", "pt", "vi"):
            path = os.path.join(work, "delta_%d_%s.xml" % (k, lang))
            if os.path.exists(path):
                cmd += ["--dump", "%s=%s" % (lang, path)]
        with open(os.path.join(work, "delta_%d.remove" % k)) as f:
            for row in f.read().split("\n"):
                if row:
                    cmd += ["--remove", row]
        start = time.perf_counter()
        _, rss = run_timed(cmd, os.path.join(work, "apply.log"))
        reload_start = time.monotonic_ns()
        reloaded = control.request("reload " + generations[k])
        reloads.append((reload_start, time.monotonic_ns()))
        gen_line = control.request("generation")
        visible = time.perf_counter() - start
        answer = control.request(probe)
        m = re.search(r"generation=(\d+)", gen_line)
        checks.append(("reload %d serves generation %d" % (k, k + 1),
                       reloaded.startswith("ok ") and m is not None and
                       int(m.group(1)) == k + 1))
        refresh_s.append(visible)
        delta_rss.append(rss)
        with open(generations[k] + ".probe", "w") as f:
            f.write(answer)
        cycles.append({"kind": kinds[k], "refresh_s": visible})
        current = generations[k]
        k += 1
    control.close()
    out, err = loadgen.communicate(timeout=120)
    if loadgen.returncode != 0:
        sys.stderr.write(err.decode("utf-8", "replace"))
        raise BenchError("loadgen exited %d" % loadgen.returncode)
    result = json.loads(out.decode().strip().splitlines()[-1])
    stalls = reader_stalls(record, reloads)
    server_rss = peak_rss_mb(proc.pid)
    cache_hit_ratio = hit_ratio(counts_before, cache_counts(port))
    procs.stop(proc)
    checks.append(("probe after every reload matches its published snapshot",
                   result["probes"] == k and result["probes_mismatched"] == 0))
    checks.append(("background responses byte-equal to some generation",
                   result["mismatched"] == 0 and result["torn"] == 0))
    # Quality of a generation every run publishes, so how many batches fit
    # in the window does not move it.
    quality = tool("check-build", "--snapshot", generations[MIN_REFRESHES - 1],
                   "--corpus-seed", CORPUS_SEED, "--scale", REFRESH_SCALE)
    step = result["steps"][0]
    # Edits are three of every four batches and cost about the same; a
    # median over them does not depend on how many renames fit.
    edit_s = [c["refresh_s"] for c in cycles if c["kind"] == "edit"]
    report.update({
        "setup_runs_s": setups, "cycles": cycles,
        "refresh_s": statistics.median(refresh_s),
        "refresh_edit_s": statistics.median(edit_s),
        "refresh_serve_p99_ms": step["p99_ms"],
        "reader_stall_ms": stalls,
        "background_rps": REFRESH_BACKGROUND_RPS,
        "apply_delta_rss_mb": statistics.median(delta_rss),
        "serve_rss_mb": server_rss, "match_f": quality,
        "cache_hit_ratio": cache_hit_ratio,
        "loadgen": result})
    metrics = {
        "setup_s": setup,
        "latency_p50_ms": statistics.median(edit_s) * 1000.0,
        "tail_ms": statistics.median(stalls),
        "rss_mb": statistics.median(delta_rss),
        "match_f": quality["match_f"],
    }
    attempted = len(refresh_s) + result["attempted"] + SETUP_BOOTS
    return metrics, attempted, result["failed"]


# --------------------------------------------------------------- tracing --

def traced_layers(args, work, report):
    """The traced in-process replay of the workload's layers."""
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    stem = os.path.join(traces, "%s-%d" % (args.workload, args.seed))
    layers = {}
    if args.workload == "build":
        layers = tool("trace-build", "--dir", work,
                      "--out", os.path.join(work, "replay.snap"),
                      "--threads", args.threads,
                      "--trace-out", stem + ".trace.json")
    elif args.workload == "serve":
        layers = tool("trace-serve",
                      "--snapshot", os.path.join(work, "serve.snap"),
                      "--warm", os.path.join(work, "warm.txt"),
                      "--requests", os.path.join(work, "requests.txt"),
                      "--count", TRACE_SERVE_REQUESTS,
                      "--trace-out", stem + ".trace.json")
        ladder = report["ladder"]
        # A cached attr answer costs microseconds in process; its closed
        # loop round trip over TCP is the network and protocol overhead.
        layers["net.overhead_us"] = (
            report["closed"]["verbs"]["attr"]["p50_ms"] * 1000.0 -
            layers["serve.attr.hit_us.p50"])
        layers["net.shed"] = (report["loadgen"]["shed"] +
                              report["reference_loadgen"]["shed"])
        layers["net.gen_late_ms"] = max(
            s["late_p99_ms"] for s in ladder + [report["reference"]])
        layers["net.max_rps"] = report["serve_max_rps"]
    else:
        layers = tool("trace-refresh",
                      "--snapshot", os.path.join(work, "serve.snap"),
                      "--deltas", work, "--count", TRACE_REFRESH_BATCHES,
                      "--threads", args.threads, "--work", work,
                      "--trace-out", stem + ".trace.json")
        layers["net.gen_late_ms"] = report["loadgen"]["steps"][0][
            "late_p99_ms"]
        layers["net.shed"] = report["loadgen"]["shed"]
    if args.workload != "build":
        layers["sync.run_ms"] = report["input"]["setup_layers"]["sync.run_ms"]
    summary = {name: layers.get(name, 0.0) for name, _ in PER_LAYER}
    with open(stem + ".summary.json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "layers": summary, "replay": layers}, f, indent=1,
                  sort_keys=True)
    report["trace_files"] = [os.path.relpath(stem + ".trace.json", ROOT),
                             os.path.relpath(stem + ".summary.json", ROOT)]
    report["trace_overhead_ms"] = layers.get("trace.overhead_ms")
    return {name: {"value": layers.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER}


# ------------------------------------------------------------------ main --

WORKLOADS = {"build": workload_build, "serve": workload_serve,
             "refresh": workload_refresh}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=2,
                        help="wikimatch --threads (pool workers)")
    parser.add_argument("--net-threads", type=int, default=2,
                        help="wikimatch serve --net-threads")
    parser.add_argument("--refresh-net-threads", type=int, default=1,
                        help="wikimatch serve --net-threads in refresh")
    args = parser.parse_args()
    # A SIGTERM still stops and reaps every child (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    try:
        build_program()
    except BenchError as e:
        sys.stderr.write("e2ebench: %s\n" % e)
        return 1
    work = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload,
                                                     args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    procs = Processes()
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "host": host_block(),
              "scale": SCALES[args.workload],
              "flags": {"threads": args.threads,
                        "net_threads": args.net_threads,
                        "refresh_net_threads": args.refresh_net_threads,
                        "conns": CONNS}}
    checks = []
    try:
        metrics, attempted, failed = WORKLOADS[args.workload](
            args, work, procs, report, checks)
        if args.trace:
            out_metrics = traced_layers(args, work, report)
        else:
            out_metrics = {name: {"value": metrics[name], "unit": unit}
                           for name, unit in END_TO_END.items()}
    except (BenchError, OSError, ValueError, KeyError) as e:
        sys.stderr.write("e2ebench: %s\n" % e)
        return 1
    finally:
        procs.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    failed_checks = [name for name, ok in checks if not ok]
    report["checks_passed"] = len(checks) - len(failed_checks)
    report["checks_failed"] = failed_checks
    print("report: " + json.dumps(report, sort_keys=True))
    for name, unit in END_TO_END.items():
        if name in metrics:
            print("  %-16s %14.6g %s" % (name, metrics[name], unit))
    correct = not failed_checks
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
