#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (the quorum library from ../src, quorum_serve and
quorum_worker from ../tools, and the perfbench driver) into .bench_build/
at the root of the checkout, runs one workload, and prints the driver's
result object as the last line of stdout. With --trace 1 the driver also
writes a Chrome trace-event file next to the build.

Every process the run starts lives in one session. Whatever way the run
ends (normal exit, failure, timeout, SIGINT/SIGTERM), every process left
in that session is killed and reaped, and the run fails if any survives.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("batch_flagship", "hw_modes", "stream_drift", "serve_open")
RUN_TIMEOUT_S = 170.0
PR_SET_CHILD_SUBREAPER = 36


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures on first use, then builds incrementally."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            code = subprocess.call(step, stdout=log, stderr=subprocess.STDOUT)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                # A failed configure must not leave a cache that skips it.
                cache = os.path.join(BUILD, "CMakeCache.txt")
                if step[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                fail("build failed: " + " ".join(step))


def session_members(sid):
    """Pids of live (non-zombie) processes whose session id is `sid`."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as f:
                stat = f.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp session.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 3 and int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


def reap_children():
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_session(sid, timeout_s=10.0):
    """Kills every process of session `sid` and waits until none is left.
    Returns the pids that survived."""
    deadline = time.monotonic() + timeout_s
    sig = signal.SIGTERM
    while True:
        reap_children()
        members = session_members(sid)
        if not members:
            return []
        for pid in members:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        if time.monotonic() > deadline:
            return members
        if time.monotonic() > deadline - timeout_s / 2:
            sig = signal.SIGKILL
        time.sleep(0.02)


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Parses the driver's result and checks its metrics against
    BENCHMARK.json. A traced run reports only the layers its workload
    reaches; every other per-layer metric reads 0."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result object has unexpected keys")
    expected = expected_metrics(trace)
    if trace:
        for name, unit in expected.items():
            result["metrics"].setdefault(name, {"value": 0, "unit": unit})
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
            fail("metric %s is not a number" % name)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail("metrics differ from BENCHMARK.json (missing %s, extra %s, "
             "or a unit differs)" % (missing, extra))
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # orphans then go to init; stop_session still kills them

    build()

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            ROOT, ".bench_build",
            "trace_%s_seed%d.json" % (args.workload, args.seed))]

    def on_signal(signo, _frame):
        raise KeyboardInterrupt("signal %d" % signo)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGHUP, on_signal)

    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    output = ""
    code = None
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %.0f s" % RUN_TIMEOUT_S,
              file=sys.stderr)
    except KeyboardInterrupt:
        print("perfbench: interrupted", file=sys.stderr)
    finally:
        if proc.poll() is None:
            # SIGTERM first: the driver's handler stops its daemons.
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        survivors = stop_session(proc.pid)
    if survivors:
        fail("processes survived the run: %s" % survivors)
    if code is None:
        sys.exit(1)

    lines = output.strip().splitlines()
    if code != 0 or not lines:
        sys.stdout.write(output)
        fail("driver exited with code %s" % code)
    result = check_result(lines[-1], args.trace)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
