#!/usr/bin/env python3
"""Serving-layer smoke test: wsrd pipe mode vs wsr_plan --json.

Usage: wsrd_smoke.py <path-to-wsrd> <path-to-wsr_plan>

What it checks (the PR's acceptance criteria, also run as the `wsrd_smoke`
ctest and by the CI docs job):

1. Four requests piped through `wsrd --pipe`, one of them a 12 MB
   response, answer with plan objects that are identical to `wsr_plan
   --json` for the same requests, once the serving-only fields (id,
   cache_tier, plan_cache counters) are stripped.
2. A cold run against an empty --cache-dir plans everything ("planned"),
   and a *restarted* daemon on the same directory answers every request
   from the disk tier ("disk") with bit-identical plan JSON.
3. The stats verb reports the disk store's load and the expected hit
   counters, and request errors answer {"error": ...} without killing the
   daemon, including a grid past the 1024-PE extent bound.
4. `wsr_plan --simulate` runs both simulators at the planned ramp latency:
   at --tr=2 and --tr=5 the simulated cycle count (FabricSim on a row,
   FlowSim on a grid too large for it) is within 1% of the prediction.
5. `wsr_plan` exits 2 on a malformed or out-of-range --tr and on a grid
   past the extent bound, instead of planning or aborting.
6. wsrd's memory does not grow with the machines it plans for: 16
   `reduce 512` lines that differ only in "tr" peak within one 512-PE
   Auto-Gen table of 16 lines that differ only in "bytes" (peak RSS of the
   child, read with os.wait4, measured before anything else runs), so
   neither per-machine tables nor duplicate concurrent fills come back.

Stdlib only (no pip installs); exits non-zero with a diagnostic on the
first violation.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

REQUESTS = [
    {"collective": "reduce", "grid": "64", "bytes": 1024, "id": 1},
    {"collective": "allreduce", "grid": "8x8", "bytes": 512, "id": 2},
    {"collective": "reduce", "grid": "32", "bytes": 256,
     "algorithm": "TwoPhase", "id": 3},
    # X-Y AutoGen on a 128x128 grid: a 12 MB response, so the front ends
    # and the disk restart are compared at megabyte size too.
    {"collective": "allreduce", "grid": "128x128", "bytes": 16384, "id": 4},
]

# Fields the daemon adds on top of the wsr_plan --json object, and the
# counter object whose values legitimately differ between front ends.
SERVING_ONLY = ("id", "cache_tier", "plan_cache")


def fail(message, *context):
    print(f"FAIL: {message}", file=sys.stderr)
    for item in context:
        print(f"  {item}", file=sys.stderr)
    sys.exit(1)


def run_daemon(wsrd, lines, cache_dir=None):
    """Pipes `lines` (JSON objects) through wsrd --pipe; returns parsed
    response objects in order."""
    argv = [wsrd, "--pipe"]
    if cache_dir:
        argv.append(f"--cache-dir={cache_dir}")
    payload = "".join(json.dumps(line) + "\n" for line in lines)
    proc = subprocess.run(argv, input=payload, capture_output=True,
                          text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"wsrd exited with {proc.returncode}", proc.stderr)
    responses = [json.loads(line) for line in proc.stdout.splitlines() if line]
    if len(responses) != len(lines):
        fail(f"expected {len(lines)} responses, got {len(responses)}",
             proc.stdout)
    return responses


def peak_rss_mb(argv, lines):
    """Pipes `lines` (JSON objects) through `argv`, a wsrd --pipe command;
    returns the child's peak RSS in MB."""
    payload = "".join(json.dumps(line) + "\n" for line in lines).encode()
    with tempfile.TemporaryFile() as errors:
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=errors)
        proc.stdin.write(payload)
        proc.stdin.close()
        answers = proc.stdout.read().decode().splitlines()
        # Reap the child here rather than through Popen, to read its rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            errors.seek(0)
            fail(f"wsrd exited with {proc.returncode}", errors.read()[-800:])
    if len(answers) != len(lines) or any("error" in json.loads(a)
                                         for a in answers):
        fail("wsrd must plan every line", answers[:2])
    return usage.ru_maxrss / 1024  # ru_maxrss is in KB on Linux


# One 512-PE Auto-Gen table (EnergyTable), in MB.
TABLE_512_MB = 29


def run_cli(wsr_plan, request):
    argv = [wsr_plan, request["collective"], request["grid"],
            str(request["bytes"]), "--json"]
    if "algorithm" in request:
        argv.append(f"--algo={request['algorithm']}")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"wsr_plan exited with {proc.returncode}", proc.stderr)
    return json.loads(proc.stdout)


# (wsr_plan arguments, simulator line prefix): a row small enough for the
# cycle-level FabricSim, and a grid that falls through to FlowSim.
SIMULATE_CASES = [
    (["reduce", "64", "256", "--algo=Chain"], "fabric sim"),
    (["reduce", "80x80", "256", "--algo=X-Y Chain"], "flow sim"),
]


# wsr_plan arguments that must exit 2: --tr is an integer in 0..1024, no
# grid extent may exceed 1024, and <bytes> is a positive multiple of 4 whose
# wavelet count fits 32 bits, written in decimal digits only.
BAD_CLI_CASES = [
    ["reduce", "64", "256", "--tr=abc"],
    ["reduce", "64", "256", "--tr=-1"],
    ["reduce", "64", "256", "--tr=2.7"],
    ["reduce", "64", "256", "--tr=1025"],
    ["reduce", "64", "256", "--tr="],
    ["reduce", "70000", "4"],
    ["broadcast", "60000x60000", "4"],
    ["allreduce", "1025x2", "4"],
    ["reduce", "4", "4abc"],
    ["reduce", "4", "-4"],
    ["reduce", "4", "17179869184"],
]


def cycles_on_line(text, prefix):
    """The cycle count of the `<prefix> : N cycles` line of wsr_plan's
    report, or None."""
    for line in text.splitlines():
        if line.startswith(prefix):
            fields = line.split(":", 1)[1].split()
            if len(fields) >= 2 and fields[1].startswith("cycles"):
                return int(fields[0])
    return None


def stripped(response):
    return {k: v for k, v in response.items() if k not in SERVING_ONLY}


def canonical(response):
    return json.dumps(stripped(response), sort_keys=True)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    wsrd, wsr_plan = sys.argv[1], sys.argv[2]
    cache_dir = tempfile.mkdtemp(prefix="wsrd_smoke_")
    try:
        # --- 0. one Auto-Gen table serves every machine --------------------
        # Runs first: a child's ru_maxrss starts from this process's RSS at
        # fork, and the checks below hold megabyte responses as parsed
        # objects, which would raise the floor of both measurements.
        argv = [wsrd, "--pipe", "--jobs=4"]
        by_tr = [{"collective": "reduce", "grid": "512", "bytes": 1024,
                  "tr": k, "id": k} for k in range(16)]
        by_bytes = [{"collective": "reduce", "grid": "512",
                     "bytes": 1024 * (k + 1), "id": k} for k in range(16)]
        tr_mb = peak_rss_mb(argv, by_tr)
        bytes_mb = peak_rss_mb(argv, by_bytes)
        if tr_mb > bytes_mb + TABLE_512_MB:
            fail(f"16 machines peaked at {tr_mb:.0f} MB, more than one "
                 f"512-PE table ({TABLE_512_MB} MB) over one machine's "
                 f"{bytes_mb:.0f} MB")
        print(f"ok: 16 values of tr peak at {tr_mb:.0f} MB, 16 vector "
              f"lengths at {bytes_mb:.0f} MB")

        # --- 1. wsrd pipe mode vs wsr_plan --json --------------------------
        daemon = run_daemon(wsrd, REQUESTS)
        for req, resp in zip(REQUESTS, daemon):
            if resp.get("id") != req["id"]:
                fail("response id mismatch", req, resp)
            if resp.get("cache_tier") != "planned":
                fail("fresh daemon must plan every request", resp.get("cache_tier"))
            cli = run_cli(wsr_plan, req)
            if canonical(resp) != canonical(cli):
                fail("wsrd response differs from wsr_plan --json",
                     f"request: {req}",
                     f"wsrd:     {canonical(resp)[:400]}",
                     f"wsr_plan: {canonical(cli)[:400]}")
        print(f"ok: {len(REQUESTS)} wsrd pipe responses match wsr_plan --json")

        # --- 2. warm restart serves disk-hits bit-identically --------------
        stats_verb = {"verb": "stats"}
        cold = run_daemon(wsrd, REQUESTS + [stats_verb], cache_dir)
        for resp in cold[:-1]:
            if resp.get("cache_tier") != "planned":
                fail("cold cache-dir run must plan", resp.get("cache_tier"))
        cold_stats = cold[-1]["stats"]
        if cold_stats["planned"] != len(REQUESTS) or cold_stats["disk"]["appended"] != len(REQUESTS):
            fail("cold stats should report every request planned+appended",
                 cold_stats)

        warm = run_daemon(wsrd, REQUESTS + [stats_verb], cache_dir)
        for req, (cold_resp, warm_resp) in zip(REQUESTS, zip(cold, warm)):
            if warm_resp.get("cache_tier") != "disk":
                fail("restarted daemon must answer from the disk tier",
                     req, warm_resp.get("cache_tier"))
            if canonical(warm_resp) != canonical(cold_resp):
                fail("disk-served plan JSON is not bit-identical to the cold run",
                     f"request: {req}")
        warm_stats = warm[-1]["stats"]
        if warm_stats["planned"] != 0 or warm_stats["disk_hits"] != len(REQUESTS):
            fail("warm stats should report zero plans and all disk hits",
                 warm_stats)
        if warm_stats["disk"]["loaded"] != len(REQUESTS):
            fail("restart should load every appended record", warm_stats)
        print(f"ok: warm restart served {len(REQUESTS)} disk-hits bit-identically")

        # --- 3. wsr_plan --cache-dir shares the daemon's store -------------
        proc = subprocess.run(
            [wsr_plan, "reduce", "64", "1024", "--json",
             f"--cache-dir={cache_dir}"],
            capture_output=True, text=True, timeout=300)
        cli = json.loads(proc.stdout)
        if cli.get("cache_tier") != "disk":
            fail("wsr_plan --cache-dir must see the daemon's plans",
                 cli.get("cache_tier"))
        if canonical(cli) != canonical(warm[0]):
            fail("wsr_plan --cache-dir plan differs from the daemon's")
        print("ok: wsr_plan --cache-dir shares the daemon's disk store")

        # --- 4. errors are answered, not fatal -----------------------------
        mixed = [{"collective": "nope", "grid": "4", "bytes": 4, "id": "bad"},
                 REQUESTS[0]]
        responses = run_daemon(wsrd, mixed)
        if "error" not in responses[0] or responses[0].get("id") != "bad":
            fail("invalid request must answer an error with the echoed id",
                 responses[0])
        if "error" in responses[1]:
            fail("a bad request must not poison the next one", responses[1])
        print("ok: request errors answer in-band and the stream continues")

        # --- 5. adversarial input: the daemon degrades, never dies ---------
        # Empty lines are skipped, binary garbage and an oversized line
        # answer in-band errors, a well-formed request AFTER the abuse still
        # plans, and a half-written request cut off by EOF is answered
        # rather than hung on. (The socket transports get the same treatment
        # plus eviction policies — tools/wsrd_chaos.py covers those.)
        good = json.dumps(REQUESTS[0])
        payload = (b"\n"
                   b"   \t\n"
                   b"\x00\x01\xfe\xffnot json\n"
                   + b"x" * 5000 + b"\n"
                   + good.encode() + b"\n"
                   + b'{"collective":"reduce","grid":"32"')  # torn, no EOL
        proc = subprocess.run([wsrd, "--pipe", "--max-line-bytes=4096"],
                              input=payload, capture_output=True, timeout=300)
        if proc.returncode != 0:
            fail(f"wsrd exited with {proc.returncode} on adversarial input",
                 proc.stderr.decode(errors="replace"))
        lines = [json.loads(l) for l in proc.stdout.splitlines() if l]
        if len(lines) != 4:
            fail(f"expected 4 responses to adversarial input, got {len(lines)}",
                 proc.stdout[:800])
        garbage_resp, oversized_resp, good_resp, torn_resp = lines
        if "error" not in garbage_resp:
            fail("binary garbage must answer an in-band error", garbage_resp)
        if oversized_resp.get("error") != "too_large":
            fail("an oversized line must answer too_large", oversized_resp)
        if "error" in good_resp or good_resp.get("id") != REQUESTS[0]["id"]:
            fail("a request after garbage+oversized must still plan",
                 good_resp)
        if "error" not in torn_resp:
            fail("a torn request at EOF must answer an error", torn_resp)
        print("ok: empty/garbage/oversized/torn input answered in-band, "
              "daemon stayed up")

        # A grid past the 1024 extent bound, in both grid forms, answers an
        # in-band error and the next line still plans (planning a 70000-PE
        # row aborted the daemon).
        huge = [{"collective": "reduce", "grid": "70000", "bytes": 4,
                 "id": "huge"},
                {"collective": "reduce",
                 "grid": {"width": 70000, "height": 1}, "bytes": 4,
                 "id": "huge-object"},
                REQUESTS[0]]
        responses = run_daemon(wsrd, huge)
        for req, resp in zip(huge[:2], responses):
            if "error" not in resp or resp.get("id") != req["id"]:
                fail("an oversized grid must answer an in-band error", resp)
        if "error" in responses[2] or responses[2].get("id") != REQUESTS[0]["id"]:
            fail("a request after an oversized grid must still plan",
                 responses[2])
        print("ok: oversized grids answered in-band, the next line planned")

        # --- 6. --simulate runs the simulators at the planned T_R ----------
        for args, sim in SIMULATE_CASES:
            for tr in (2, 5):
                argv = [wsr_plan] + args + [f"--tr={tr}", "--simulate"]
                proc = subprocess.run(argv, capture_output=True, text=True,
                                      timeout=300)
                if proc.returncode != 0:
                    fail(f"wsr_plan exited with {proc.returncode}", argv,
                         proc.stderr)
                predicted = cycles_on_line(proc.stderr, "predicted")
                simulated = cycles_on_line(proc.stderr, sim)
                if predicted is None or simulated is None:
                    fail(f"no predicted / {sim} line", argv, proc.stderr)
                if abs(simulated - predicted) > 0.01 * predicted:
                    fail(f"{sim} is not within 1% of the prediction at "
                         f"--tr={tr}", argv, proc.stderr)
        print(f"ok: wsr_plan --simulate matches the prediction at --tr=2 "
              f"and --tr=5 ({len(SIMULATE_CASES)} cases)")

        # --- 7. wsr_plan refuses out-of-range input with exit 2 ------------
        for args in BAD_CLI_CASES:
            proc = subprocess.run([wsr_plan] + args, capture_output=True,
                                  text=True, timeout=300)
            if proc.returncode != 2:
                fail(f"wsr_plan must exit 2, exited {proc.returncode}", args,
                     proc.stderr)
        print(f"ok: wsr_plan exits 2 on {len(BAD_CLI_CASES)} malformed or "
              f"out-of-range --tr / grid / bytes arguments")

        return 0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
