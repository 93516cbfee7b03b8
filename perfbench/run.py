#!/usr/bin/env python3
"""Build the `flint` binary and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-magic --seed 1 --seconds 20 --trace 0

Workloads: serve-magic, route-ranking, batch-magic. `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer metrics. The last line of
standard output is the JSON result; build output goes to standard error.

Both builds share `CARGO_TARGET_DIR` (default `.bench_build` at the root).
The benchmark writes model and trace files under `perfbench/.work`.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The kernels the paper's measurements need: the template JIT and the
# AVX2 lane kernels (both fall back bit-identically where unavailable).
FEATURES = "jit-x86,simd-avx2"
# A run measures for at most 120 s; this bounds a hung one.
RUN_TIMEOUT_S = 170


def cargo_build(args, env):
    """Runs `cargo build --release --offline ARGS` at the root; True on success."""
    cmd = ["cargo", "build", "--release", "--offline", *args]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no Cargo workspace at " + ROOT, file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not cargo_build(["-p", "flint-cli", "--features", FEATURES], env):
        print("perfbench: building flint failed", file=sys.stderr)
        return 1
    if not cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env):
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 1
    cmd = [
        os.path.join(target, "release", "perfbench"),
        *sys.argv[1:],
        "--flint",
        os.path.join(target, "release", "flint"),
        "--work",
        os.path.join(HERE, ".work"),
    ]
    # Its own process group, so a hung run can be stopped together with
    # the servers it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        while group_alive(proc.pid):
            time.sleep(0.05)
        print("perfbench: run timed out", file=sys.stderr)
        return 1


def group_alive(pgid):
    """Whether any process of group `pgid` is still running."""
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


if __name__ == "__main__":
    sys.exit(main())
