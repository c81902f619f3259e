#!/usr/bin/env python3
"""Build ocb_bench from this checkout's sources, then run it.

    python3 bench/e2e/run.py --workload frame_s025 --seed 1 --seconds 15 --trace 0

Every argument passes through to ocb_bench (see README.md). The build
lives in $CARGO_TARGET_DIR/ocb_e2e (default .bench_build/ocb_e2e) under
the repository root. Build output goes to stderr, so the result object
stays the last line of stdout. Traced runs write their Chrome trace to
<build>/traces/<workload>-seed<seed>.json unless --trace-file is given.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def flag_value(args, name, default):
    for i, arg in enumerate(args):
        if arg == name and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return default


def step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def git_sha():
    # The ceiling keeps git from finding a repository above this one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, env=env)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    args = sys.argv[1:]
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "ocb_e2e")
    if not os.path.exists(os.path.join(build, "Makefile")):
        step(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build, "--target", "ocb_bench",
          "-j", str(os.cpu_count() or 1)])

    extra = ["--git-sha", git_sha()]
    if flag_value(args, "--trace", "0") == "1" and \
            flag_value(args, "--trace-file", None) is None:
        traces = os.path.join(build, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (flag_value(args, "--workload", "none"),
                                   flag_value(args, "--seed", "1"))
        extra += ["--trace-file", os.path.join(traces, name)]
    binary = os.path.join(build, "ocb_bench")
    sys.stdout.flush()
    os.execv(binary, [binary] + args + extra)


if __name__ == "__main__":
    main()
