#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs it (bench/e2e/README.md).

One workload, as BENCHMARK.json's command runs it:

  python3 bench/e2e/run.py --workload knn1-uniform --seed 7 --seconds 45 \
      --trace 0

Both workloads on small inputs, a few seconds each:

  python3 bench/e2e/run.py --smoke

The build goes to build-e2e/ at the repository root, result files (and
the spans files of traced runs) to --out-dir, build-e2e/results/ by
default. The last line of stdout is the result object of the last
workload run. Exit status: 0 ok, 1 build failure or voided run, 2 usage.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD, "e2e_bench")
WORKLOADS = ["knn1-uniform", "kinds-mix"]


def build():
    """Configures and builds into BUILD; False (log tail on stderr) on failure."""
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")  # keep compiler temporaries here
    os.makedirs(env["TMPDIR"], exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("e2e build failed; full log in %s\n" % log_path)
                return False
    return True


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(workload, seed, seconds, trace, smoke, sha, out_dir):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir,
           "--work-dir", os.path.join(BUILD, "work"), "--commit", sha]
    if smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=19950523)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs; all workloads unless --workload")
    parser.add_argument("--out-dir", default=os.path.join(BUILD, "results"),
                        help="where result and spans files go")
    args = parser.parse_args()
    if args.workload is None and not args.smoke:
        parser.error("--workload is required without --smoke")
    seconds = args.seconds or (1 if args.smoke else 45)
    if not build():
        return 1
    sha = commit()
    for workload in [args.workload] if args.workload else WORKLOADS:
        code = run(workload, args.seed, seconds, args.trace, args.smoke, sha,
                   os.path.abspath(args.out_dir))
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
