#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--smoke]

Builds the router libraries and the perfbench binary from source (Release,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload, and relays the binary's output.  The last line of standard output
is the result object {"correct", "attempted", "failed", "metrics"}.  The exit
code is the binary's: 0 when every output check passed.  A traced run writes
its spans to <build dir>/trace-<workload>-<seed>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("chip-netlist", "chip-bignets", "session-eco")
DEFAULT_SEED = 1


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("router sources (src/) not found next to perfbench/")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", str(os.cpu_count() or 1)]
    open(log_path, "w").close()

    def step(cmd):
        with open(log_path, "a") as log:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode == 0

    # A build tree left behind by another source directory is rebuilt.
    if not step(configure):
        shutil.rmtree(build_dir, ignore_errors=True)
        os.makedirs(build_dir)
        if not step(configure):
            fail("cmake configure failed; see " + log_path)
    if not step(compile_):
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one round (checks the metric set only)")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                             "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
