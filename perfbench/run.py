#!/usr/bin/env python3
"""Build and run the htapg benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (its own Cargo package, path-depending on the
repository crates) in release mode, then runs one workload. The binary's
last stdout line is the JSON result. The build goes to `$CARGO_TARGET_DIR`
(default `perfbench/target`); per-seed layer counts, which later runs of
the same binary must repeat, are kept there as well.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def git_rev():
    """The commit the checkout is at, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "perfbench", "target")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    # The pool's workers plus the calling thread: one runnable thread per core.
    nproc = len(os.sched_getaffinity(0))
    env["HTAPG_THREADS"] = str(max(nproc - 1, 1))
    binary = os.path.join(target, "release", "htapg-perfbench")
    run = subprocess.run(
        [binary, *sys.argv[1:], "--state-dir", target, "--rustc", rustc or "unknown", "--git-rev", git_rev()],
        cwd=ROOT,
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
