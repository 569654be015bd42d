#!/usr/bin/env python3
"""The wsr benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. The script builds wsr_perfbench and wsrd
from source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the workload, checks its outputs and
prints a report whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones (perfbench/README.md lists both). Any
failed request, failed verification or failed check makes the exit code 1.
"""
import argparse
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("serve_zipf", "sweep_wafer", "sweep_fabric")

# Each of these silently changes the engine or the thread count under
# measurement, so the benchmark refuses to run while any is set.
PINNED_ENV = ("WSR_FABRIC_STEPPING", "WSR_FABRIC_SIMD", "WSR_FABRIC_THREADS",
              "WSR_FABRIC_TILE", "WSR_BENCH_JOBS")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "max_rate_rps": "1/s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
    "model_err_mean": "ratio",
    "lb_ratio_max": "ratio",
}

PER_LAYER = {
    "common.json_parse_us.p50": "us",
    "serving.parse_request_us.p50": "us",
    "serving.serve_batch_us.p50": "us",
    "serving.serve_batch_us.p99": "us",
    "serving.rtt_p50_ms": "ms",
    "serving.rtt_p99_ms": "ms",
    "serving.ladder_max_rps": "1/s",
    "serving.transport_ms.p50": "ms",
    "serving.response_kb.mean": "kB",
    "serving.gen_lag_ms.p99": "ms",
    "serving.reconcile_gap_frac": "ratio",
    "serving.latency_samples": "count",
    "runtime.key_for_us.p50": "us",
    "runtime.mem_hit_us.p50": "us",
    "runtime.mem_hit_ratio": "ratio",
    "runtime.evictions": "count",
    "store.file_get_us.p50": "us",
    "store.file_hit_ratio": "ratio",
    "store.file_put_ms.p50": "ms",
    "store.file_puts": "count",
    "store.load_ms": "ms",
    "registry.select_us.p50": "us",
    "registry.candidates.mean": "count",
    "autogen.dp_fill_ms.p50": "ms",
    "autogen.dp_fills": "count",
    "autogen.lb_ms": "ms",
    "runtime.plan_ms.p50": "ms",
    "runtime.plan_ms.p99": "ms",
    "collectives.build_ms.p50": "ms",
    "wse.validate_us.p50": "us",
    "runtime.serialize_ms.p50": "ms",
    "wse.to_json_ms.p50": "ms",
    "wse.fabric_s": "s",
    "wse.fabric_mpe_cycles_per_s": "Mpe_cycles/s",
    "wse.fabric_degraded_s": "s",
    "flowsim.s": "s",
    "flowsim.kops_per_s": "kops/s",
    "trace.overhead_frac": "ratio",
}

# The generator may run this late (p99, ms) before a serve run is invalid.
MAX_GEN_LAG_MS = 20.0

# Daemon starts per untraced serve run; setup_s is their median.
SERVE_SETUP_REPS = 9


def log(msg):
    print(msg, flush=True)


def fail(msg):
    """Exits without a result line (set-up problems, not measured failures)."""
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--default-seed", type=int, default=1)
    p.add_argument("--held-out-seed", type=int, default=None)
    p.add_argument("--serve-rate", type=float, default=100,
                   help="offered rate of the serve_zipf fixed-rate phase")
    p.add_argument("--p99-limit-ms", type=float, default=500,
                   help="tail-latency limit of a max_rate_rps ladder rung")
    a = p.parse_args()
    if a.seed is None:
        a.seed = a.default_seed
    return a


def environment(a):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    return {"nproc": nproc, "cpu": cpu, "build_type": "Release",
            "seed": a.seed, "default_seed": a.default_seed,
            "held_out_seed": a.held_out_seed, "threads": min(4, nproc)}


def build(build_dir):
    """Configures and builds wsr_perfbench and wsrd; returns their paths."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(os.cpu_count() or 1)
    with open(log_path, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "wsr_perfbench", "wsrd", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return (os.path.join(build_dir, "wsr_perfbench"),
            os.path.join(build_dir, "wsr", "wsrd"))


def run_json(cmd, label):
    """Runs a wsr_perfbench subcommand; returns (exit code, its JSON report)."""
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if res.stderr:
        sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail(f"{label} printed nothing (exit {res.returncode})")
    return res.returncode, json.loads(lines[-1])


# --- serve_zipf -------------------------------------------------------------


class Daemon:
    """One wsrd on a fresh copy of the prepared store. Every daemon started
    is listed in RUNNING until stopped; main() stops any left on exit."""

    RUNNING = []

    def __init__(self, wsrd, workdir, prepared, tag, conns, max_entries):
        self.store = os.path.join(workdir, f"store-{tag}")
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(prepared, self.store)
        # Relative to the checkout root (every process runs there): a Unix
        # socket path must fit in 108 bytes wherever the build dir lives.
        self.sock = os.path.relpath(os.path.join(workdir, f"d-{tag}.sock"))
        self.flags = [f"--socket={self.sock}", f"--cache-dir={self.store}",
                      f"--max-entries={max_entries}", "--jobs=1",
                      f"--dispatchers={conns}"]
        self.log = open(os.path.join(workdir, f"wsrd-{tag}.log"), "w")
        t0 = time.monotonic()
        self.proc = subprocess.Popen([wsrd] + self.flags, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        Daemon.RUNNING.append(self)
        self.setup_s = self._first_answer(t0)

    def _first_answer(self, t0):
        """Seconds from exec to the answer of a first (stats) request."""
        deadline = t0 + 120
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                fail(f"wsrd exited during start-up (code {self.proc.returncode})")
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.connect(self.sock)
                    s.sendall(b'{"verb":"stats"}\n')
                    buf = b""
                    while not buf.endswith(b"\n"):
                        chunk = s.recv(65536)
                        if not chunk:
                            break
                        buf += chunk
                    if b'"stats"' in buf:
                        return time.monotonic() - t0
            except OSError:
                time.sleep(0.001)
        fail("wsrd did not answer within 120 s")

    def stop(self):
        """SIGTERM drain; returns the daemon's exit code."""
        if self in Daemon.RUNNING:
            Daemon.RUNNING.remove(self)
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        shutil.rmtree(self.store, ignore_errors=True)
        return self.proc.returncode


def serve_zipf(a, env, bench, wsrd, workdir):
    """The in-process replays of the stream (the gated numbers), split
    around the daemon run (checks, set-up, RSS; RTT and the rate ladder
    when traced); the traced run then replays the stream with spans."""
    conns = env["threads"]
    max_entries = 64
    fixed_s = a.seconds / 2
    prepared = os.path.join(workdir, "prepared")
    code, prep = run_json([bench, "serve-prepare", f"--seed={a.seed}",
                           f"--store={prepared}"], "serve-prepare")
    if code:
        fail("store preparation failed")
    log(f"prepared store: {prep['warm_keys']:.0f} of {prep['keys']:.0f} keys "
        f"pre-warmed in {prep['prepare_s']:.2f} s")

    # Set-up is timed on several daemon starts, each on a fresh store copy:
    # before the load (the last of these daemons serves it) and, untraced,
    # after it, so the median samples the whole run.
    setups = []

    def start_daemons(n, tag):
        daemon = None
        for rep in range(n):
            if daemon is not None and daemon.stop() != 0:
                fail("wsrd did not drain cleanly")
            daemon = Daemon(wsrd, workdir, prepared, f"{tag}{rep}", conns, max_entries)
            setups.append(daemon.setup_s)
        return daemon

    daemon = start_daemons(1 if a.trace else SERVE_SETUP_REPS // 2 + 1, "a")
    env["daemon_flags"] = " ".join(f for f in daemon.flags
                                   if not f.startswith(("--socket", "--cache-dir")))
    env["connections"] = conns
    serve_args = [f"--seed={a.seed}", f"--store={prepared}", f"--rate={a.serve_rate}",
                  f"--seconds={fixed_s}", f"--max-entries={max_entries}"]
    load_cmd = [bench, "serve-load", f"--socket={daemon.sock}", f"--conns={conns}",
                f"--replay-seconds={0 if a.trace else a.seconds / 2}",
                f"--ladder-seconds={a.seconds / 2 if a.trace else 0}",
                f"--limit-ms={a.p99_limit_ms}", f"--daemon-pid={daemon.proc.pid}"]
    code, load = run_json(load_cmd + serve_args, "serve-load")
    if daemon.stop() != 0:
        load["failed"] += 1
        load["errors"].append("wsrd did not drain cleanly")
    for e in load["errors"]:
        log(f"ERROR {e}")
    for rung in load["ladder"]:
        log(f"ladder {rung}")
    log(f"daemon fixed phase: {load['rtt_samples']:.0f} requests at "
        f"{load['offered_rps']:.0f} rps offered ({load['sent_rps']:.1f} sent), "
        f"RTT p50 {load['rtt_p50_ms']:.3f} ms, "
        f"p{100 * load['rtt_tail_level']:.2f} {load['rtt_p99_ms']:.1f} ms, "
        f"{load['keys_seen']:.0f} of {load['keys']:.0f} keys seen, "
        f"tiers {json.dumps(load['cache_tiers'])}")
    log(f"RTT quantiles p10..p90,p95,p97,p98,p99 (ms): {load['rtt_quantiles_ms']}")
    log(f"output checks: every answer (daemon and in process) in order with its "
        f"id, a schedule and no error; {load['sample_checked']:.0f} sampled "
        f"answers byte-compared; model checked on {load['model_keys']:.0f} keys")
    lagging = load["gen_lag_ms_p99"] > MAX_GEN_LAG_MS
    if lagging:
        log(f"INVALID: generator lag p99 {load['gen_lag_ms_p99']:.2f} ms "
            f"> {MAX_GEN_LAG_MS} ms")
    result = {"attempted": int(load["attempted"]), "failed": int(load["failed"]),
              "valid": code == 0 and not lagging, "layers": {}}
    if not a.trace:
        if start_daemons(SERVE_SETUP_REPS - len(setups), "b").stop() != 0:
            fail("wsrd did not drain cleanly")
        log(f"in-process serving: {load['replays']:.0f} replays of "
            f"{load['latency_samples'] / load['replays']:.0f} requests, tail level "
            f"p{100 * load['latency_tail_level']:.2f}; wall times (s): "
            f"{', '.join(load['replay_s_reps'])}")
        log(f"daemon set-up times (s): {', '.join(f'{x:.6f}' for x in setups)}")
        result["e2e"] = {"setup_s": statistics.median(setups)}
        result["e2e"].update({k: load[k] for k in END_TO_END if k != "setup_s"})
        return result
    code, tr = run_json([bench, "serve-trace"] + serve_args, "serve-trace")
    result["valid"] = result["valid"] and code == 0
    result["attempted"] += int(tr["attempted"])
    result["failed"] += int(tr["failed"])
    for e in tr["errors"]:
        log(f"ERROR {e}")
    layers = {k: v for k, v in tr.items() if k in PER_LAYER}
    layers.update({
        "serving.rtt_p50_ms": load["rtt_p50_ms"],
        "serving.rtt_p99_ms": load["rtt_p99_ms"],
        "serving.ladder_max_rps": load["ladder_max_rps"],
        "serving.transport_ms.p50": (load["rtt_p50_ms"]
                                     - tr["serving.serve_batch_us.p50"] / 1e3),
        "serving.response_kb.mean": load["response_kb_mean"],
        "serving.gen_lag_ms.p99": load["gen_lag_ms_p99"],
        "serving.latency_samples": load["rtt_samples"],
    })
    result["layers"] = layers
    log(f"in-process replay: untraced {tr['replay_untraced_s']:.3f} s, "
        f"traced {tr['replay_traced_s']:.3f} s, serve_batch "
        f"{tr['serve_batch_total_s']:.3f} s")
    log(f"self time by span (s): {json.dumps(tr['self_s'])}")
    return result


# --- the sweeps ---------------------------------------------------------------


def sweep(a, env, bench, workdir):
    cells = os.path.join(workdir, f"{a.workload}-cells.tsv")
    cmd = [bench, "sweep", f"--workload={a.workload}", f"--seed={a.seed}",
           f"--seconds={a.seconds}", f"--jobs={env['threads']}",
           f"--cells-out={cells}"] + (["--trace"] if a.trace else [])
    code, rep = run_json(cmd, "sweep")
    for e in rep["errors"]:
        log(f"ERROR {e}")
    keep = os.path.join(os.path.dirname(workdir), f"{a.workload}-seed{a.seed}-cells.tsv")
    shutil.copyfile(cells, keep)
    log(f"{rep['cells']:.0f} cells x {rep['sweep_reps']:.0f} sweeps, "
        f"{rep['sim_lines']:.0f} simulated plans per sweep; per-cell cycles "
        f"in {keep} (digest {rep['cycles_digest']})")
    log(f"sweep wall times (s): {', '.join(rep['sweep_s_reps'])}")
    log(f"set-up times (s): {', '.join(rep['setup_s_reps'])}")
    log(f"cell latency: {rep['latency_samples']:.0f} samples, tail level "
        f"p{100 * rep['latency_tail_level']:.2f}")
    if a.trace:
        log(f"self time by span (s, summed over workers): {json.dumps(rep['self_s'])}")
    e2e = {k: rep[k] for k in END_TO_END}
    layers = {k: v for k, v in rep.items() if k in PER_LAYER}
    return {"attempted": int(rep["attempted"]), "failed": int(rep["failed"]),
            "valid": code == 0, "e2e": e2e, "layers": layers}


def main():
    a = parse_args()
    pinned = [v for v in PINNED_ENV if v in os.environ]
    if pinned:
        fail(f"refusing to run with {', '.join(pinned)} set: each changes the "
             "engine or thread count under measurement")
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of a wsr checkout (CMakeLists.txt and src/ "
             "are missing)")
    env = environment(a)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    bench, wsrd = build(build_dir)
    workdir = os.path.join(build_dir, f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if a.workload == "serve_zipf":
            res = serve_zipf(a, env, bench, wsrd, workdir)
        else:
            res = sweep(a, env, bench, workdir)
    finally:
        for daemon in list(Daemon.RUNNING):
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    log("environment: " + json.dumps(env))
    units = PER_LAYER if a.trace else END_TO_END
    values = res["layers"] if a.trace else res["e2e"]
    metrics = {}
    for name, unit in units.items():
        v = float(values.get(name, 0.0))
        metrics[name] = {"value": v, "unit": unit}
        log(f"  {name:34s} {v:16.6f} {unit}")
    correct = res["valid"] and res["failed"] == 0
    log(f"{a.workload}: attempted {res['attempted']}, failed {res['failed']} "
        f"(failed_frac {res['failed'] / max(1, res['attempted']):.6f})")
    print(json.dumps({"correct": correct, "attempted": max(1, res["attempted"]),
                      "failed": res["failed"], "metrics": metrics}), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
