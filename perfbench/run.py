#!/usr/bin/env python3
"""Builds tristream-cli and the benchmark from this checkout, then runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds go to $CARGO_TARGET_DIR (default: .bench_build); generated inputs,
cached exact counts and trace files go to .perfbench/. The last line of
standard output is the JSON result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "tristream-cli"],
        ["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        # Cargo's own output goes to stderr; the result line owns stdout.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "perfbench")
    cli = os.path.join(target, "release", "tristream-cli")
    data = os.path.join(ROOT, ".perfbench")
    sys.stdout.flush()
    os.execv(bench, [bench, "--cli", cli, "--data", data, *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
