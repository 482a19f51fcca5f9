#!/usr/bin/env python3
"""Benchmark of record for lalrgen.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the `lalrgen` binary and
the benchmark's own helper (perfbench/ocaml/pb.exe) with dune, makes the
workload's inputs from the seed, drives the program as its users do, checks
every answer against a reference the program does not produce, and prints
one JSON result as the last line of stdout: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Metric names and units
come from BENCHMARK.json; definitions are in perfbench/NOTES.md.
"""

import argparse
import json
import os
import select
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
LALRGEN = os.path.join(ROOT, "_build", "default", "bin", "lalrgen.exe")
PB = os.path.join(ROOT, "_build", "default", "perfbench", "ocaml", "pb.exe")

# The fewest timed ops per run: on the CLI workloads at least eleven
# repeats of every input, on serve-mixed ten samples beyond its tail
# percentile. A run keeps going past --seconds until it has that many, up
# to HARD_CAP_S.
MIN_OPS = {"cli-suite": 200, "cli-scaled": 50, "serve-mixed": 1000}
SERVE_TAIL = 99.0
HARD_CAP_S = 100.0
# An op not answered this long after it was sent is a failed op, and ends
# the loop. No op is sent after HARD_CAP_S, so a loop ends by
# HARD_CAP_S + OP_TIMEOUT_S even if the program hangs.
OP_TIMEOUT_S = 30.0
PB_TIMEOUT_S = 120.0

# Set-up is sampled several times per run and reported as the fastest
# sample. A shared machine's speed drifts within a run, so the samples are
# spread over it: CLI start-up before the loop and after every pass, serve
# set-ups before and after the loop.
CLI_SETUP_BEFORE = 5
CLI_SETUP_PER_PASS = 3
SERVE_SETUP_BEFORE = 3
SERVE_SETUP_AFTER = 3
# The host's speed: a fixed Python loop that uses no program code is timed
# with every CLI start-up sample and a few times after every serve set-up.
# Every time-based end-to-end metric is scaled by REF_KERNEL_MS / the loop's
# fastest time in the run, so it reads as if the run had gone at the speed
# at which the loop takes REF_KERNEL_MS (its fast-state time on the
# reference machine). A stretch of minutes in which the shared host runs
# everything slower then slows the loop too, and cancels out (NOTES.md).
REF_KERNEL_MS = 5.5
SERVE_KERNELS_PER_SETUP = 10
# Inline serve requests are unique, so the request stream cannot be
# recycled. It is generated for this many requests per second of
# --seconds, far above the measured rate (see NOTES.md), and read lazily.
SERVE_STREAM_RATE = 1000


class Failure(Exception):
    """The benchmark could not run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def now():
    return time.perf_counter_ns()


def secs(ns):
    return ns / 1e9


# ---------------------------------------------------------------------------
# Build and environment


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    raise Failure("dune not found on PATH")


def build():
    for f in ("dune-project", os.path.join("bin", "lalrgen.ml")):
        if not os.path.exists(os.path.join(ROOT, f)):
            raise Failure(f"not a lalrgen source checkout: {f} is missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune() + ["build", "--root", ROOT, "./bin/lalrgen.exe", "./perfbench/ocaml/pb.exe"]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise Failure("build failed:\n" + r.stderr[-4000:])


def pb(*args):
    try:
        r = subprocess.run(
            [PB, *args], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=PB_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise Failure(f"pb {' '.join(args)} did not finish within {PB_TIMEOUT_S:.0f} s")
    if r.returncode != 0:
        raise Failure(f"pb {' '.join(args)} failed: {r.stderr[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def environment():
    got = spawn([LALRGEN, "--version"])
    if got is None or got[0] != 0:
        raise Failure("lalrgen --version failed")
    version = got[1].strip()
    return {
        "nproc": os.cpu_count(),
        "ocaml": pb("info")["ocaml"],
        "lalrgen_version": version,
    }


# ---------------------------------------------------------------------------
# Statistics


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    if not v:
        return 0.0
    k = (len(v) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def kernel_ms():
    """One timing of the speed-reference loop: dict stores, a sort and a sum
    over 20011 ints, about 5.5 ms on the reference machine's fast state."""
    t0 = now()
    d = {}
    for i in range(40000):
        d[(i * 7919) % 20011] = i
    sum(x & 255 for x in sorted(d.values(), key=lambda x: -x))
    return (now() - t0) / 1e6


class Run:
    """What one timed loop produced."""

    def __init__(self, workload):
        self.workload = workload
        self.setup_s = []
        self.lat_ms = []  # answered ops only
        self.attempted = 0
        self.ok = 0
        self.failed = 0
        self.wall_s = 0.0
        self.peak_rss_mb = 0.0
        self.ops = []  # op inputs, in timed order, for the traced replay
        self.extra = {}  # per-layer figures from the untraced loop
        self.info = {}
        self.kernel_ms = []  # speed-reference timings

    def best_ms(self):
        """Each CLI input's fastest timing in the run. The host only ever
        adds time to a deterministic op, so the fastest of many repeats is
        the steadiest estimate of what the op itself costs."""
        best = {}
        for op, ms in zip(self.ops, self.lat_ms):
            best[op] = min(ms, best.get(op, ms))
        return best

    def end_to_end(self):
        if self.workload.startswith("cli-"):
            best = list(self.best_ms().values()) or [0.0]
            # One pass over every input at its best, scaled by the share of
            # answers that were right; the tail is the costliest input.
            per_s = len(best) / (sum(best) / 1e3) * self.ok / len(self.lat_ms) if self.lat_ms else 0.0
            p50 = percentile(best, 50.0)
            tail = max(best)
        else:
            per_s = self.ok / self.wall_s
            p50 = percentile(self.lat_ms, 50.0)
            tail = percentile(self.lat_ms, SERVE_TAIL)
        f = self.speed_factor()
        return {
            "setup_s": min(self.setup_s) * f,
            "verdicts_per_s": per_s / f,
            "latency_p50_ms": p50 * f,
            "latency_tail_ms": tail * f,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def speed_factor(self):
        return REF_KERNEL_MS / min(self.kernel_ms)

    def describe(self):
        n = len(self.lat_ms)
        d = {
            "ops": n,
            "timed_wall_s": self.wall_s,
            "setup_samples_s": self.setup_s,
            "kernel_best_ms": min(self.kernel_ms),
            "speed_factor": self.speed_factor(),
            **self.info,
        }
        if self.workload.startswith("cli-"):
            d["best_ms"] = self.best_ms()
            d["fewest_repeats"] = min(self.ops.count(op) for op in d["best_ms"]) if n else 0
        else:
            d["tail_percentile"] = SERVE_TAIL
            d["tail_samples_beyond"] = int(n * (100.0 - SERVE_TAIL) / 100.0)
        return d


def keep_going(start, ops, seconds, min_ops):
    elapsed = secs(now() - start)
    if elapsed >= HARD_CAP_S:
        return False
    return elapsed < seconds or ops < min_ops


# ---------------------------------------------------------------------------
# CLI workloads: one `lalrgen` process per op


def readable(fd, deadline):
    left = deadline - time.monotonic()
    return left > 0 and bool(select.select([fd], [], [], left)[0])


def spawn(args):
    """Runs one process to exit; returns (exit code, stdout, max RSS in MB),
    or None if it has not exited OP_TIMEOUT_S after launch (it is killed)."""
    deadline = time.monotonic() + OP_TIMEOUT_S
    p = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    pidfd = os.pidfd_open(p.pid)
    chunks = []
    exited = False
    try:
        fd = p.stdout.fileno()
        while readable(fd, deadline):
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                exited = readable(pidfd, deadline)
                break
            chunks.append(chunk)
        if not exited:
            p.kill()
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        os.close(pidfd)
        p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    if not exited:
        return None
    return p.returncode, b"".join(chunks).decode(errors="replace"), ru.ru_maxrss / 1024.0


def cli_setup(run, reps):
    """Start-up every CLI call pays, with no analysis: `lalrgen suite`."""
    names = None
    for _ in range(reps):
        t0 = now()
        got = spawn([LALRGEN, "suite"])
        run.setup_s.append(secs(now() - t0))
        run.kernel_ms.append(kernel_ms())
        if got is None or got[0] != 0:
            raise Failure("lalrgen suite failed")
        _, out, _ = got
        names = [line.split()[0] for line in out.splitlines() if line.strip()]
    return names


def parse_classify(out):
    """The fields `lalrgen classify` prints, keyed by line label."""
    v = {"not_lr_k": False}
    for line in out.splitlines():
        label, _, rest = line.partition(":")
        words = rest.split()
        if label.strip() in ("LR(0)", "SLR(1)", "LALR(1)", "LR(1)") and words:
            v[label.strip()] = words[0] == "true"
            if label.strip() == "LALR(1)" and len(words) >= 5:
                v["lalr_sr"] = int(words[1].lstrip("("))
                v["lalr_rr"] = int(words[3])
        elif line.startswith("not LR(k)"):
            v["not_lr_k"] = True
    return v


def check_suite(code, out, x):
    v = parse_classify(out)
    return (
        (code == 0) == x["lalr1"]
        and code in (0, 1)
        and v.get("LR(0)") == x["lr0"]
        and v.get("SLR(1)") == x["slr1"]
        and v.get("LALR(1)") == x["lalr1"]
        and v.get("lalr_sr") == x["lalr_sr"]
        and v.get("lalr_rr") == x["lalr_rr"]
        and v["not_lr_k"] == x["not_lr_k"]
        # The LR(1) line is optional output; when printed it must agree.
        and v.get("LR(1)", x["lr1"]) == x["lr1"]
    )


def check_scaled(code, out):
    v = parse_classify(out)
    return code == 0 and v.get("LALR(1)") is True and v.get("lalr_sr") == 0 and v.get("lalr_rr") == 0


def cli_loop(run, seconds, passes, check):
    """Closed loop, one client; whole passes only, so every input weighs the
    same. Start-up samples taken between passes are not timed wall."""
    min_ops = MIN_OPS[run.workload]
    start = now()
    p = 0
    while keep_going(start, len(run.lat_ms), seconds, min_ops):
        t_pass = now()
        for spec in passes[p % len(passes)]:
            if secs(now() - start) >= HARD_CAP_S:
                break
            t0 = now()
            got = spawn([LALRGEN, "classify", spec])
            run.attempted += 1
            if got is None:
                run.failed += 1
                log(f"no answer: classify {spec} did not exit within {OP_TIMEOUT_S:.0f} s")
                continue
            code, out, rss = got
            run.lat_ms.append((now() - t0) / 1e6)
            run.ops.append(spec)
            run.peak_rss_mb = max(run.peak_rss_mb, rss)
            if check(spec, code, out):
                run.ok += 1
            else:
                run.failed += 1
                log(f"wrong answer: classify {spec} exited {code}:\n{out}")
        run.wall_s += secs(now() - t_pass)
        cli_setup(run, CLI_SETUP_PER_PASS)
        p += 1


def cli_suite(run, seed, seconds, work):
    expect = pb("expect")
    orders = pb("gen", "cli-suite", "--seed", str(seed), "--dir", work)["orders"]
    names = cli_setup(run, CLI_SETUP_BEFORE)
    if sorted(names) != sorted(expect):
        raise Failure("lalrgen suite does not list the registry grammars")
    passes = [["suite:" + n for n in order] for order in orders]
    cli_loop(run, seconds, passes, lambda spec, code, out: check_suite(code, out, expect[spec[6:]]))


def cli_scaled(run, seed, seconds, work):
    g = pb("gen", "cli-scaled", "--seed", str(seed), "--dir", work)
    files = [os.path.relpath(f, ROOT) for f in g["files"]]
    cli_setup(run, CLI_SETUP_BEFORE)
    passes = [[files[i] for i in order] for order in g["orders"]]
    cli_loop(run, seconds, passes, lambda spec, code, out: check_scaled(code, out))


# ---------------------------------------------------------------------------
# serve-mixed: the daemon over its Unix socket, two closed-loop connections


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""
        self.pending = None  # (request index, send time)

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def read_line(self):
        """Non-blocking step: a complete response line, or None."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self.buf += chunk
        return self.take_line()

    def take_line(self):
        if b"\n" in self.buf:
            line, self.buf = self.buf.split(b"\n", 1)
            return line.decode()
        return None

    def call(self, line):
        """One request and its response, outside the timed loop."""
        self.sock.settimeout(OP_TIMEOUT_S)
        try:
            self.send(line)
            while True:
                got = self.take_line()
                if got is not None:
                    return json.loads(got)
                chunk = self.sock.recv(1 << 16)
                if not chunk:
                    raise Failure("daemon closed the connection")
                self.buf += chunk
        except OSError as e:
            raise Failure(f"no answer to {line[:80]}: {e}")
        finally:
            self.sock.settimeout(None)

    def close(self):
        self.sock.close()


class Daemon:
    def __init__(self, work, k):
        rel = os.path.relpath(work, ROOT)
        # Relative paths keep the socket path under the 108-byte limit.
        self.sock_path = os.path.join(rel, f"d{k}.sock")
        cache = os.path.join(rel, f"cache{k}")
        self.proc = subprocess.Popen(
            [LALRGEN, "serve", "--domains", "1", "--cache", cache, "--socket", self.sock_path],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )

    def wait_ready(self):
        ok = readable(self.proc.stdout.fileno(), time.monotonic() + OP_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ok else ""
        if "listening" not in line:
            raise Failure(f"daemon not ready: {line!r}")

    def vm_hwm_mb(self):
        try:
            with open(f"/proc/{self.proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except FileNotFoundError:
            pass
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def serve_expect(req, expect):
    """The reference answer for one request line."""
    if req.get("kind") == "health":
        return ("health", None)
    if "file" in req:
        x = expect[req["file"][len("suite:"):]]
        return ("ok" if x["lalr1"] else "verdict", x["lalr1"])
    return ("ok", True)  # inline Scaled grammars are conflict-free LALR(1)


def serve_ok(resp, req, expect):
    status, lalr1 = serve_expect(req, expect)
    if resp.get("id") != req.get("id"):
        return False
    if status == "health":
        return resp.get("ready") is True
    return resp.get("status") == status and resp.get("lalr1") == lalr1


def serve_mixed(run, seed, seconds, work, daemons):
    expect = pb("expect")
    count = SERVE_STREAM_RATE * max(1, round(seconds))
    g = pb("gen", "serve-mixed", "--seed", str(seed), "--dir", work, "--count", str(count))
    warm = [json.dumps({"id": f"w{i}", "kind": "classify", "file": spec}) for i, spec in enumerate(g["warmup"])]

    def set_up(k):
        """Daemon launch to ready line, plus one warm-up request per language
        grammar, with a fresh cache."""
        t0 = now()
        d = Daemon(work, k)
        daemons.append(d)
        d.wait_ready()
        c = Conn(d.sock_path)
        for line in warm:
            resp = c.call(line)
            if resp.get("status") not in ("ok", "verdict"):
                raise Failure(f"warm-up failed: {resp}")
        run.setup_s.append(secs(now() - t0))
        c.close()
        run.kernel_ms.extend(kernel_ms() for _ in range(SERVE_KERNELS_PER_SETUP))
        return d

    # The last daemon set up before the loop serves it.
    for k in range(SERVE_SETUP_BEFORE):
        if k:
            d.stop()
        d = set_up(k)

    # Two closed-loop connections, never more than the machine has cores.
    min_ops = MIN_OPS[run.workload]
    conns = [Conn(d.sock_path) for _ in range(min(2, os.cpu_count() or 1))]
    for c in conns:
        c.sock.setblocking(False)
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    queue_ms, wall_ms, transport_ms = [], [], []
    lat_by_request = {}
    stream = open(g["requests"])
    exhausted = False
    start = now()

    def send_next(c):
        nonlocal exhausted
        if exhausted or not keep_going(start, run.attempted, seconds, min_ops):
            return
        line = stream.readline().rstrip("\n")
        if not line:
            exhausted = True
            log(f"the request stream ran out after {run.attempted} requests")
            return
        c.pending = (run.attempted, now())
        run.attempted += 1
        run.ops.append(line)
        c.sock.setblocking(True)
        c.send(line)
        c.sock.setblocking(False)

    try:
        for c in conns:
            send_next(c)
        while any(c.pending for c in conns):
            oldest = min(c.pending[1] for c in conns if c.pending)
            events = sel.select(timeout=max(0.0, OP_TIMEOUT_S - secs(now() - oldest)))
            if not events:
                raise TimeoutError(f"no answer within {OP_TIMEOUT_S:.0f} s")
            for key, _ in events:
                c = key.data
                line = c.read_line()
                while line is not None:
                    t = now()
                    i, t0 = c.pending
                    c.pending = None
                    lat = (t - t0) / 1e6
                    lat_by_request[i] = lat
                    send_next(c)
                    resp = json.loads(line)
                    if serve_ok(resp, json.loads(run.ops[i]), expect):
                        run.ok += 1
                    else:
                        run.failed += 1
                        log(f"wrong answer: {run.ops[i][:120]} -> {line[:300]}")
                    if "queue_ms" in resp:
                        queue_ms.append(resp["queue_ms"])
                        wall_ms.append(resp["wall_ms"])
                        transport_ms.append(lat - resp["queue_ms"] - resp["wall_ms"])
                    line = c.take_line()
    except (TimeoutError, ConnectionError) as e:
        # A missing answer fails its request and ends the loop.
        for c in conns:
            if c.pending:
                run.failed += 1
                log(f"missing answer: {run.ops[c.pending[0]][:120]}: {e}")
                c.pending = None
    run.wall_s = secs(now() - start)
    run.lat_ms = [lat_by_request[i] for i in range(run.attempted) if i in lat_by_request]
    stream.close()
    sel.close()
    for c in conns:
        c.close()
    try:
        c = Conn(d.sock_path)
        health = c.call(json.dumps({"id": "final", "kind": "health"}))
        c.close()
    except (Failure, OSError) as e:
        log(f"no final health: {e}")
        health = {}
    run.peak_rss_mb = d.vm_hwm_mb()
    d.stop()
    for k in range(SERVE_SETUP_AFTER):
        set_up(SERVE_SETUP_BEFORE + k).stop()
    store = health.get("store") or {}
    probes = store.get("hits", 0) + store.get("misses", 0)
    run.info = {"stream_requests": count, "stream_exhausted": exhausted}
    run.extra = {
        "pool.queue_ms": mean(queue_ms),
        "pool.compute_ms": mean(wall_ms),
        "serve.transport_ms": mean(transport_ms),
        "store.hit_ratio": store.get("hits", 0) / probes if probes else 0.0,
    }


# ---------------------------------------------------------------------------
# Traced run: replay the same inputs in process under the benchmark's spans


def keep(path):
    """Moves an output out of the work directory, which the run deletes."""
    dest = os.path.join(OUT, os.path.basename(path))
    os.replace(path, dest)
    return dest


def traced(run, seed, work):
    w = run.workload
    ops_file = os.path.join(work, "replay-ops.txt")
    with open(ops_file, "w") as f:
        f.write("\n".join(run.ops) + "\n")
    rep = pb("replay", w, "--seed", str(seed), "--dir", work, "--ops", ops_file)
    rep["spans_file"] = keep(rep["spans_file"])
    metrics = dict(rep["metrics"])
    attempted, failed = rep["ops"], rep["failed"]
    gaps = [lat - op for lat, op in zip(run.lat_ms, rep["op_ms"])]
    if w.startswith("cli-"):
        metrics["cli.startup_ms"] = {"value": statistics.median(run.setup_s) * 1e3, "ops": len(run.setup_s)}
        metrics["cli.unattributed_ms"] = {"value": mean(gaps), "ops": len(gaps)}
    if w == "serve-mixed":
        for k in ("pool.queue_ms", "pool.compute_ms", "serve.transport_ms", "store.hit_ratio"):
            metrics[k] = {"value": run.extra[k], "ops": len(run.lat_ms)}
    if w == "cli-scaled":
        lad = pb("ladder", "--seed", str(seed), "--dir", work)
        keep(os.path.join(work, f"spans-ladder-{seed}.json"))
        metrics.update(lad["metrics"])
        # The parser runtime: an untimed warm-up cycle, an untraced loop,
        # then one traced cycle of the same sentences.
        par = pb("parse", "--seed", str(seed), "--dir", work)
        par["spans_file"] = keep(par["spans_file"])
        for k in ("driver.ms", "driver.ns_per_action", "driver.actions", "driver.alloc_mb", "trace.overhead_ratio"):
            metrics[k] = par["metrics"][k]
        attempted += par["ops"]
        failed += par["failed"]
        rep = dict(rep, ladder=lad["steps"], parse={k: v for k, v in par.items() if k != "metrics"})
    return metrics, attempted, failed, rep


# ---------------------------------------------------------------------------


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(MIN_OPS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    os.chdir(ROOT)
    spec = load_spec()
    build()
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"{a.workload}-{a.seed}-{a.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    # The work directory holds inputs, caches and stores (hundreds of MB for
    # serve-mixed); only the result file and the spans file outlive the run.
    try:
        measure(a, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(a, spec, work):
    env = environment()
    run = Run(a.workload)
    daemons = []
    try:
        if a.workload == "cli-suite":
            cli_suite(run, a.seed, a.seconds, work)
        elif a.workload == "cli-scaled":
            cli_scaled(run, a.seed, a.seconds, work)
        else:
            serve_mixed(run, a.seed, a.seconds, work, daemons)
    finally:
        for d in daemons:
            d.stop()

    attempted, failed = run.attempted, run.failed
    report = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace, **env, **run.describe()}
    if a.trace == 0:
        values = run.end_to_end()
        names = spec["end_to_end"]
    else:
        values, t_attempted, t_failed, replay = traced(run, a.seed, work)
        attempted += t_attempted
        failed += t_failed
        report["replay"] = {k: v for k, v in replay.items() if k not in ("metrics", "op_ms")}
        report["per_layer_ops"] = {k: v.get("ops", 0) for k, v in values.items()}
        values = {k: v["value"] for k, v in values.items()}
        names = spec["per_layer"]
        # A layer that does no work on this workload reads 0, with 0 ops.
        for m in names:
            values.setdefault(m["name"], 0.0)
            report["per_layer_ops"].setdefault(m["name"], 0)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    summary = dict(report)
    report["metrics"] = metrics
    if run.ops:
        report["ops_timed"] = [{"input": op[:100], "latency_ms": ms} for op, ms in zip(run.ops, run.lat_ms)]
    with open(os.path.join(OUT, f"result-{a.workload}-{a.seed}-{a.trace}.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(summary))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except Failure as e:
        log(f"perfbench: {e}")
        sys.exit(2)
