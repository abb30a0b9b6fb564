#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the program's libraries plus the psync_perfbench
driver) into .bench_build/ from source, runs the workload for S seconds
from the checkout root, checks every operation's output and prints the
metrics. With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a separate,
traced run. The line before it gives the details: host fingerprint,
sample counts, quartiles, failures and the workload's own figures. The
full report, spans included, is written to .bench_build/results/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import report  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["paper_fft2d", "table3_transpose", "psync_sweep",
             "served_campaign"]
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally (a no-op when current)."""
    if not (ROOT / "src" / "psync").is_dir():
        fail(f"no program sources under {ROOT / 'src'}; run from a checkout")
    out = BUILD / "perfbench"
    log = BUILD / "build.log"
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", "2"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return out / "psync_perfbench"


def host():
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0))}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own process group, so a timeout also stops psync_sweep's workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode:
        fail(f"psync_perfbench exited with {proc.returncode}")
    rep = json.loads(out)
    rep["host"].update(host())

    golden = json.loads((HERE / "golden.json").read_text())
    attempted, failures = report.check(rep, golden)
    values = report.per_layer(rep) if args.trace else report.end_to_end(rep)
    metrics = {k: {"value": v, "unit": report.unit(k)}
               for k, v in values.items()}
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": rep["host"],
              "error_rate": len(failures) / attempted,
              "failures": failures[:10], **report.details(rep)}

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(
        {"detail": detail, "metrics": metrics, "report": rep}))

    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
