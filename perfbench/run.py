"""weyl-lab benchmark: time to verified results on three workloads.

    python3 perfbench/run.py --workload kernel-scan --seed 0 --seconds 35 --trace 0

Run from the repository root.  Each run starts one fresh workload process
(`workload.py`) with single-threaded BLAS (OPENBLAS_NUM_THREADS =
OMP_NUM_THREADS = 1) and WEYL_LAB_THREADS = nproc, so wall time cannot be
bought with extra threads.  Workloads, with the layer each stresses:

- kernel-scan: exact-kernel scans (torus off-diagonal and remainder scans,
  3-D remainder, cluster-sup, sphere scan, README kernel items).  Per-lambda
  dual-lattice re-enumeration and per-level Legendre sums.
- smoothed-projector: smooth-compare (Poisson oracle) and the
  acceptance-6 h-bounds.  Multiplier quadrature.
- random-waves: torus and sphere covariance, rescaled covariance and
  sample mode.  Counter-based Gaussian draws.

End-to-end metrics (`--trace 0`): wall_s and cpu_s of one pass over the
items including output checks (each item's fastest of the passes that fit
in `--seconds`, summed), setup_s (fresh interpreter until `weyl_lab.cli` is
imported and the inputs are built; median of SETUP_SAMPLES processes, half
started before the measured process and half after it) and
peak_rss_mb (ru_maxrss of the workload process).  failed_frac is printed,
and carried in the result's `failed`/`attempted`.

Per-layer metrics (`--trace 1`): one untraced pass, then one pass with
spans around the calls into each weyl_lab module (see spans.py).

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Any failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD = HERE / "workload.py"
SETUP_SAMPLES = 7
TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               WEYL_LAB_THREADS=str(len(os.sched_getaffinity(0))))
    return env


def launch(args: list, deadline: float):
    """Start workload.py; return (process, seconds until it printed ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKLOAD), *args], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        _, err = finish(proc, deadline)
        raise RuntimeError("workload process did not get ready: %s" % err)
    return proc, setup


def setup_only(common: list, deadline: float) -> float:
    proc, setup = launch([*common, "--setup-only"], deadline)
    finish(proc, deadline)
    return setup


def finish(proc, deadline: float):
    """Wait for the process, killing it at the deadline; (stdout, stderr tail)."""
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    return out, err[-4000:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "weyl_lab" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the repository root (needs src/weyl_lab and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error("unknown workload %r" % args.workload)
    deadline = time.monotonic() + TIMEOUT_S
    out_dir = root / ".perfbench_out" / ("%s-%d" % (args.workload, os.getpid()))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # set-up samples are taken before and after the measured process, so
        # their median spans the whole run rather than one moment of it
        setups = [setup_only(common, deadline) for _ in range(SETUP_SAMPLES // 2)]
        proc, setup = launch([*common, "--seconds", str(args.seconds),
                              "--trace", str(args.trace), "--out", str(out_dir)], deadline)
        setups.append(setup)
        out, err = finish(proc, deadline)
        if proc.returncode != 0:
            raise RuntimeError("workload process exited %s: %s" % (proc.returncode, err))
        setups += [setup_only(common, deadline) for _ in range(SETUP_SAMPLES // 2)]
        result = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()

    result["setup_s"] = statistics.median(setups)
    attempted = len(result["items"])
    failed = sum(1 for r in result["items"] if r["failures"])
    for r in result["items"]:
        print("item %-18s %8.3f s  %s" % (r["item"], r["seconds"],
                                          "; ".join(r["failures"]) or "ok"))
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("passes %d, setup samples %s" % (result["passes"],
                                           ", ".join("%.4f" % s for s in setups)))
    print("metric failed_frac %.6g (%d of %d items)" % (failed / attempted, failed, attempted))
    if args.trace:
        values, wanted = result["layers"], spec["per_layer"]
    else:
        values, wanted = result, spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print("metric %s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
