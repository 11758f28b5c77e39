#!/usr/bin/env python3
"""gcomm benchmark: one command per workload run.

    python3 gcabench/run.py --workload synth-scale|paper-fig10|serve-mix \\
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds the library, gca-compile and the
measurement harness from source in Release (NDEBUG) mode into .bench_build
(or $CARGO_TARGET_DIR), runs the harness, prints every metric by name with
its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics and writes the spans as a Chrome trace to
.bench_build/traces/<workload>-seed<N>.json. See metrics.py for the
definition of every metric on every workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

WORKLOADS = ("synth-scale", "paper-fig10", "serve-mix")


def fail(msg):
    print("gcabench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, out):
    """Configures (once) and builds the harness and the server."""
    if not (root / "src" / "CMakeLists.txt").is_file() or \
            not (root / "tools" / "gca-compile.cpp").is_file():
        fail("no gcomm sources (src/, tools/) next to %s" % HERE.name)
    log = out / "build.log"
    out.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as f:
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                fail("cmake configure failed; see %s" % log)
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                           "--target", "gcabench", "gca-compile"],
                          stdout=f, stderr=subprocess.STDOUT,
                          cwd=root).returncode != 0:
            fail("build failed; see %s" % log)


def src_tools_lines(root):
    n = 0
    for d in ("src", "tools"):
        for p in sorted((root / d).rglob("*")):
            if p.suffix in (".h", ".cpp") and p.is_file():
                with open(p, "rb") as f:
                    n += sum(1 for _ in f)
    return n


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0], epilog=metrics.END_TO_END_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = root / out
    build(root, out)
    (out / "run").mkdir(exist_ok=True)

    cmd = [str(out / "gcabench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--server", str(out / "gca-compile"),
           "--workdir", str(out / "run")]
    try:
        p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                           timeout=170)
    except subprocess.TimeoutExpired:
        fail("harness did not finish in 170 s")
    if p.returncode != 0:
        fail("harness exited with %d" % p.returncode)
    raw = json.loads(p.stdout.decode().strip().splitlines()[-1])
    for e in raw["errors"]:
        print("gcabench: check failed: " + e, file=sys.stderr)

    if args.trace:
        info = {"info.host_cores": float(os.cpu_count() or 0),
                "info.release_build": 1.0,
                "info.src_tools_lines": float(src_tools_lines(root))}
        values = metrics.per_layer(raw, info)
        units = metrics.PER_LAYER
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        with open(traces / ("%s-seed%d.json" % (args.workload, args.seed)),
                  "w") as f:
            json.dump(metrics.chrome_trace(raw["spans"]), f)
    else:
        values = metrics.end_to_end(raw)
        units = metrics.END_TO_END

    print("workload %s seed %d trace %d: %d ops attempted, %d failed"
          % (args.workload, args.seed, args.trace, raw["attempted"],
             raw["failed"]))
    result = {}
    for name, unit in units:
        print("  %-32s %16.6g %s" % (name, values[name], unit))
        result[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": raw["failed"] == 0 and not raw["errors"],
                      "attempted": raw["attempted"], "failed": raw["failed"],
                      "metrics": result}))


if __name__ == "__main__":
    main()
