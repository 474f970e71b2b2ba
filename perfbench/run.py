#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload frame|serve|fleet --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark binary and the
`asdr-shardd` daemon from source (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload, and checks
that the metric names and units it reports are the ones `BENCHMARK.json`
lists. The last stdout line is the JSON result; the exit code is non-zero
when the build, a check or the run fails.
"""

import json
import os
import signal
import subprocess
import sys

MANIFEST = os.path.join("perfbench", "Cargo.toml")
# the program's own sources; without them there is nothing to benchmark
SOURCES = ("Cargo.toml", os.path.join("crates", "cluster", "Cargo.toml"))
# leftover host state that would make a run neither cold nor comparable
SCRUBBED_ENV = ("ASDR_STORE_DIR", "ASDR_WORKERS", "ASDR_SERVE_WORKERS")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(env):
    base = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    for extra in ([], ["-p", "asdr_cluster", "--bin", "asdr-shardd"]):
        # cargo's progress goes to stderr; stdout is reserved for results
        done = subprocess.run(base + extra, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(base + extra)}")


def expected_metrics(trace):
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    argv = sys.argv[1:]
    if "--trace" not in argv or argv[argv.index("--trace") + 1 :][:1] not in (["0"], ["1"]):
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    trace = argv[argv.index("--trace") + 1] == "1"
    for path in SOURCES + ("BENCHMARK.json", MANIFEST):
        if not os.path.isfile(path):
            fail(f"{path} not found: run from the root of a full checkout")
    env = dict(os.environ)
    for var in SCRUBBED_ENV:
        if env.pop(var, None) is not None:
            print(f"perfbench: unset {var} for the run", file=sys.stderr)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(env)
    exe = os.path.join(target, "release")
    cmd = [os.path.join(exe, "asdr_perfbench"), *argv, "--shardd", os.path.join(exe, "asdr-shardd")]
    # a session of its own, so a timeout also stops the daemons it spawned
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        print(lines[-1])
        sys.exit(proc.returncode)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        fail(f"reported metrics differ from BENCHMARK.json: got {got}, want {want}")
    print(lines[-1])


if __name__ == "__main__":
    main()
