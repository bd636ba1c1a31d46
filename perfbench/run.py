#!/usr/bin/env python3
"""Builds the engine and the benchmark binary from this checkout, then runs
one workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: single_subject, role_batch, acl_storm, sharded_scan (README.md
describes them). The build (CMake, Release) goes to $CARGO_TARGET_DIR, or to
.bench_build in the current directory when that is unset; a build that is
already up to date costs about a second. Build output goes to stderr. The
last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
run's provenance, a readable summary, and the counts the determinism
self-test compares.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

_child = None


def _kill_child(*_):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(1)


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the group on timeout."""
    global _child
    _child = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
        raise
    finally:
        code = _child.returncode
        _child = None
    return code, out


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    # Configuring every time is cheap when the cache matches, and fails when
    # out_dir was configured from another checkout's sources.
    cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    code, _ = run(cmd, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", out_dir, "-j", jobs], BUILD_TIMEOUT_S,
                  sys.stderr)
    return code == 0


def source_id():
    """Identifies the code measured: the git commit when there is one, and
    always a digest of the engine and benchmark sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    ident = "sources:" + h.hexdigest()[:16]
    try:
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if (git.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            ident = "git:" + lines[1][:12] + " " + ident
    except (OSError, subprocess.TimeoutExpired):
        pass
    return ident


def main():
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    args = p.parse_args()

    signal.signal(signal.SIGTERM, _kill_child)
    out_dir = build_dir()
    try:
        if not build(out_dir):
            print("build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("build timed out", file=sys.stderr)
        return 1
    build_s = time.monotonic() - start

    cmd = [os.path.join(out_dir, "secxml_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--source-id", source_id()]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    if code != 0:
        sys.stderr.write(out.decode(errors="replace"))
        return code
    print("build check %.1f s" % build_s)
    sys.stdout.write(out.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
