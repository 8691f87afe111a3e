#!/usr/bin/env python3
"""Builds the benchmark and the ttserve binary from source, then runs one workload.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build in the
checkout). Build output goes to stderr; the benchmark's own output,
ending in one JSON result line, goes to stdout.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    for needed in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "tt-serve"), os.path.join("src", "bin", "ttserve.rs")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} is missing: run from a checkout of the repository", file=sys.stderr)
            return 2
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "ttserve"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    )
    for cmd in builds:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--root", ROOT, "--ttserve", os.path.join(release, "ttserve")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
