#!/usr/bin/env python3
"""Build the perfbench driver from this checkout and run one workload.

    python3 perfbench/run.py --workload bbh_evolve --seed 1 --seconds 20 --trace 0

Run from the root of the checkout. The driver is configured and built
(Release) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
with build output on stderr. The driver's stdout is passed through; its last
line is the JSON result, which must hold every metric BENCHMARK.json lists
for the run (end_to_end untraced, per_layer traced) in its unit. The exit
status is the driver's: non-zero when an output check fails; 3 when the
build fails, 4 when the result line does not match the manifest.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build() -> str:
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def manifest_problems(last_line: str, trace: int) -> list:
    """What the result line lacks against BENCHMARK.json's metric list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    want = manifest["per_layer" if trace else "end_to_end"]
    try:
        result = json.loads(last_line)
        metrics = result["metrics"]
    except (ValueError, KeyError, TypeError):
        return ["the last line is not a JSON result"]
    problems = [f"{m['name']}: missing or not in {m['unit']}" for m in want
                if metrics.get(m["name"], {}).get("unit") != m["unit"]]
    names = {m["name"] for m in want}
    problems += [f"{k}: not in the manifest" for k in metrics if k not in names]
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["bbh_evolve", "amr_regrid", "serve_mixed"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite the seed-1 psi4 reference file")
    args = ap.parse_args()
    # A terminated run.py unwinds, so the driver is stopped with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        driver = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           # Relative to ROOT, the driver's working directory: the serve
           # sockets under --out stay within the 107-byte sun_path limit
           # however deep the checkout is.
           "--out", ".perfbench_out",
           "--ref-dir", os.path.join("perfbench", "reference")]
    if args.write_reference:
        cmd.append("--write-reference")
    sys.stdout.flush()
    last = ""
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
        try:
            for line in p.stdout:
                sys.stdout.write(line)
                if line.strip():
                    last = line
        finally:
            if p.poll() is None:  # interrupted: stop the driver, then wait
                p.kill()
    sys.stdout.flush()
    if p.returncode != 0:
        return p.returncode
    problems = manifest_problems(last, args.trace)
    for problem in problems:
        print(f"perfbench: result does not match BENCHMARK.json: {problem}",
              file=sys.stderr)
    return 4 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
