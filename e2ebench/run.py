#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload <bulk_ingest|live_serve|restart_serve> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a cargo package of its own (e2ebench/Cargo.toml) that
builds against the product crates by path. Build output goes to
$CARGO_TARGET_DIR when set, else e2ebench/target. The build's messages go
to stderr; stdout carries only the benchmark's own output, whose last line
is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "kg-e2ebench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
