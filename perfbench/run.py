#!/usr/bin/env python3
"""Build the simulator's host-time benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ample_heap --seed 1 --seconds 10 --trace 0

The benchmark is compiled from source with dune into the build
directory named by CARGO_TARGET_DIR (default .bench_build), then
perfbench/main.exe runs the workload in its own process. Its output is
passed through: the line before last is a report with the machine
fingerprint and every metric's within-run quartiles; the last line is
the result object {"correct", "attempted", "failed", "metrics"}.

Exits non-zero without printing a result if the tree cannot be built or
the run fails. See perfbench/METRICS.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, env, timeout, stdout):
    """Run cmd in its own process group; on timeout kill the whole group
    (the benchmark forks one child per round) and wait for it."""
    proc = subprocess.Popen(
        cmd, env=env, stdout=stdout, stderr=sys.stderr, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %.0f s" % (cmd[0], timeout), 3)
    return proc.returncode, out


def compiler_config():
    """OCaml version and code-generation settings of the compiler used."""
    try:
        cfg = subprocess.run(
            ["ocamlopt", "-config"], capture_output=True, text=True, timeout=30
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "ocamlopt unavailable"
    keep = ("version", "architecture", "flambda", "flat_float_array")
    fields = dict(line.split(": ", 1) for line in cfg.splitlines() if ": " in line)
    parts = ["%s=%s" % (k, fields[k]) for k in keep if k in fields]
    return " ".join(parts + ["dune-profile=release"])


def commit():
    """The git commit when run from a clone, else a digest of the sources."""
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root (dune-project and lib/ not found)")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # the dune cache would write outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    start = time.monotonic()
    code, _ = run_group(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", build_dir, "./perfbench/main.exe"],
        env, 850, sys.stderr,
    )
    if code != 0:
        fail("build failed (dune exit %d)" % code, 3)
    build_s = time.monotonic() - start

    env["PERFBENCH_BUILD"] = compiler_config()
    env["PERFBENCH_COMMIT"] = commit()
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    # a run ends within 180 s, or 900 s when it had to build first
    budget = (175 if build_s < 60 else 895) - build_s
    code, out = run_group(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env, budget, subprocess.PIPE,
    )
    lines = out.decode().splitlines() if out else []
    if code != 0 or not lines:
        fail("benchmark exited with code %d" % code, 4)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line", 4)
    if set(result) != RESULT_KEYS:
        fail("malformed result line: " + lines[-1], 4)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
