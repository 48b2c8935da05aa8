#!/usr/bin/env python3
"""Runs one workload of the register-coalescing benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first run builds the library sources
(src/, tools/rc_serve.cpp) and the harness (perfbench/src/) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), as
RelWithDebInfo with assertions kept, like the top-level build.

Prints three JSON lines: the provenance of the result (build type,
compiler, nproc, load average, seed, commit or source digest), the
harness's detail object (sample counts, dense/sparse instance shares,
failed checks), and last the result object with "correct", "attempted",
"failed" and "metrics". With --trace 0 the metrics are every end-to-end
metric of BENCHMARK.json, with --trace 1 every per-layer metric; a layer
that a workload never calls reads 0. Exits 1 when an output check failed,
2 on a usage or build error. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scale-solve", "challenge-sweep", "compile-pipeline",
             "service-socket")
HARNESS_TIMEOUT_S = 170
# Traced layer rows must add up to the untraced wall within this share:
# sum(self) / untraced wall = (1 - unaccounted) * (1 + overhead).
LAYER_SUM_TOLERANCE = 0.15


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the harness and rc_serve; returns the build
    directory. Output goes to a log so stdout stays machine-readable."""
    for needed in ("src/CMakeLists.txt", "tools/rc_serve.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("repository sources not found (%s missing); run from a "
                 "checkout of the repository" % needed)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return out


def source_digest():
    """sha256 over the files the benchmark builds, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "tools", "rc_serve.cpp")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    # Only the checkout's own repository: never a git tree above it.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_harness(out, args):
    """Runs one workload; returns (exit code, detail, result)."""
    work = os.path.join(out, "work", "%s-%d" % (args.workload, os.getpid()))
    traces = os.path.join(out, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out, "rc_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative to the checkout root: Unix socket paths are short.
           "--work-dir", os.path.relpath(work, ROOT),
           "--trace-out", os.path.join(
               traces, "%s-seed%d.json" % (args.workload, args.seed)),
           "--serve-bin", os.path.join(out, "rc_serve")]
    # Own process group, so a timeout also stops the rc_serve the harness
    # started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (args.workload,
                                                HARNESS_TIMEOUT_S), 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        sys.stderr.write(stdout)
        fail("harness exited %d without a result" % proc.returncode, 1)
    return proc.returncode, detail, result


def shape_metrics(spec, result, trace):
    """Orders the harness's metrics as BENCHMARK.json lists them, checks
    every unit, and fills per-layer metrics of layers the workload never
    calls with 0."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in wanted})
    if unknown:
        fail("harness printed metrics BENCHMARK.json does not list: %s"
             % ", ".join(unknown))
    shaped = {}
    for m in wanted:
        if m["name"] in got:
            if got[m["name"]]["unit"] != m["unit"]:
                fail("metric %s has unit %s, BENCHMARK.json says %s"
                     % (m["name"], got[m["name"]]["unit"], m["unit"]))
            shaped[m["name"]] = got[m["name"]]
        elif trace:
            shaped[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail("harness did not print end-to-end metric " + m["name"])
    return shaped


def run(args):
    spec = load_benchmark_spec()
    out = build()
    code, detail, result = run_harness(out, args)
    if code not in (0, 1):
        fail("harness crashed with exit code %d" % code, 1)
    load = os.getloadavg()
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "build_type": detail.get("build_type"),
        "compiler": detail.get("compiler"),
        # The top-level build strips -DNDEBUG, so asserts are measured too.
        "assertions": "on",
        "nproc": os.cpu_count(), "threads_used": detail.get("threads"),
        "loadavg_1m": load[0], "commit": commit(),
        "source_digest": source_digest(),
    }
    result["metrics"] = shape_metrics(spec, result, args.trace)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return code


def self_test():
    """The benchmark's self-test: output checks fire on corrupted results
    (harness --selftest), every metric prints with its name and unit, and
    traced layer rows add up to the untraced wall within
    LAYER_SUM_TOLERANCE."""
    spec = load_benchmark_spec()
    out = build()
    r = subprocess.run([os.path.join(out, "rc_perfbench"), "--selftest"],
                       cwd=ROOT)
    failures = int(r.returncode != 0)
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload, "--seed", "7", "--seconds", "2", "--trace",
                   str(trace)]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
            lines = p.stdout.splitlines()
            ok = p.returncode == 0 and len(lines) >= 3
            if ok:
                metrics = json.loads(lines[-1])["metrics"]
                wanted = spec["per_layer" if trace else "end_to_end"]
                ok = [(m["name"], m["unit"]) for m in wanted] == [
                    (n, v["unit"]) for n, v in metrics.items()]
                ok = ok and all(isinstance(v["value"], (int, float))
                                for v in metrics.values())
            print("selftest %s trace=%d metrics named with units: %s"
                  % (workload, trace, "ok" if ok else "FAIL"))
            failures += not ok
            if ok and trace:
                share = ((1 - metrics["trace.unaccounted_share"]["value"]) *
                         (1 + metrics["trace.overhead_share"]["value"]))
                ok = abs(share - 1) <= LAYER_SUM_TOLERANCE
                print("selftest %s layer rows / untraced wall = %.3f "
                      "(within %.2f): %s" % (workload, share,
                                             LAYER_SUM_TOLERANCE,
                                             "ok" if ok else "FAIL"))
                failures += not ok
    print("selftest: %d failure(s)" % failures)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
