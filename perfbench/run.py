#!/usr/bin/env python3
"""Build the verdict benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload tvla-bmask2-gang --seed 1 --seconds 20 --trace 0

The Go toolchain's build cache, temporary files and the benchmark binary go
to .bench_build/ at the repository root, so a run reads and writes nothing
outside the checkout. The arguments are passed to the benchmark unchanged.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        # The toolchain's config directory (local telemetry counters).
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "-mod=mod",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    res = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                         stdout=sys.stderr)
    if res.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.chdir(root)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
