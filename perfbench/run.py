#!/usr/bin/env python3
"""Builds the PSP server and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload publish|view-hot|receive|sis \
        --seed N --seconds S --trace 0|1

Run it from the repository root. Both binaries are built in release mode
into $CARGO_TARGET_DIR (default .bench_build); the benchmark then starts
the built `puppies-cli serve` itself. Run state (store directories,
traces, per-layer tables) goes to .bench_run. The last line of standard
output is the run's JSON result; the lines before it are the report.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_id():
    """The git commit (with "-dirty" for local edits), or, in a checkout
    without git metadata such as an exported tree, a digest of the
    sources the build reads, so every result still names its code."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True).stdout.strip()
        return out.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--locked", "--offline", "-p", "puppies-cli",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml")],
        # Not --locked: the lock file follows whatever the repository's
        # crates depend on at the commit being measured.
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 3
    bench = os.path.join(target, "release", "puppies-perfbench")
    args = sys.argv[1:] + [
        "--serve-bin", os.path.join(target, "release", "puppies-cli"),
        "--commit", source_id(),
        "--out", os.path.join(ROOT, ".bench_run"),
    ]
    return subprocess.run([bench] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
