"""Benchmark of the spherestab CLI on fixed workloads.

    python3 perfbench/run.py --workload spectral-ladder --seed 0 --seconds 10 --trace 0

Run from a checkout of the repository; the library is imported from
``src/``.  Workloads are in ``workloads.py`` and each config receives
``--seed``.  One worker process (``worker.py``) drives
``spherestab.cli.main`` in-process, with BLAS/OpenMP pinned to one thread:
every hot path (SuperLU, ARPACK, NumPy element-wise work) is
single-threaded, and one thread keeps timings steady on a shared machine.

``--trace 0`` prints the end-to-end metrics, with tracing off:

* ``wall_s``: median wall time of one pass over the workload's CLI runs,
  after one untimed warm-up pass;
* ``setup_s``: median wall time for a fresh interpreter to import
  ``spherestab.cli`` and ``scipy.sparse.linalg``, which every CLI run pays;
* ``peak_rss_mb``: peak RSS of the worker process, from ``getrusage`` of
  the finished child.  Passes free what they allocate, so this is the peak
  of one pass.

``fail_share``, failed runs over attempted runs, is the result line's
``failed`` / ``attempted``.  It is not a bounded metric because it is 0 on
two workloads.  ``--trace 1`` prints the per-layer metrics of one traced
pass instead (see ``spans.py``).

The last line of standard output is the JSON result; the lines before it
are for people.  Exit code 2 means the sources are missing, 1 that the
worker did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = 1
SETUP_REPEATS = 5
DEADLINE_S = 170.0
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("share"):
        return "share"
    return "ratio" if name.endswith("residual") else "count"


def time_import(env):
    start = time.perf_counter()
    # no timeout: with one, subprocess polls the child in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import spherestab.cli, scipy.sparse.linalg"],
                   env=env, check=True)
    return time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "spherestab" / "cli.py").is_file():
        print(f"no spherestab sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, **{v: str(THREADS) for v in THREAD_VARS}}

    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    try:
        setup = []
        if args.trace == 0:
            time_import(env)  # untimed: writes the bytecode caches
            setup = [time_import(env) for _ in range(SETUP_REPEATS)]
        worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--out", str(OUT)]
        subprocess.run(worker, env=env, check=True, stdout=subprocess.DEVNULL,
                       timeout=DEADLINE_S - (time.perf_counter() - started))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        result = json.loads((OUT / "result.json").read_text())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker did not finish: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    attempted, failed = result["attempted"], len(result["failures"])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(WORKLOADS[args.workload])} configs, {attempted} runs attempted")
    print(f"machine: nproc {len(os.sched_getaffinity(0))}, python {result['python']}, "
          f"numpy {result['numpy']}, scipy {result['scipy']}, "
          f"BLAS/OpenMP threads {THREADS} ({', '.join(THREAD_VARS)})")
    print(f"fail_share = {failed}/{attempted} = {failed / attempted:.4f} share")
    for line in result["failures"]:
        print(f"  failed: {line}")
    if result.get("verdict_change"):
        print(f"  {result['verdict_change']}")

    if args.trace == 0:
        passes = result["pass_s"]
        values = {
            "wall_s": statistics.median(passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"wall_s = {values['wall_s']:.4f} s (median of {len(passes)} passes, "
              f"spread {max(passes) - min(passes):.4f} s: {', '.join(f'{p:.4f}' for p in passes)})")
        print(f"setup_s = {values['setup_s']:.4f} s (median of {len(setup)} imports, "
              f"spread {max(setup) - min(setup):.4f} s)")
        print(f"peak_rss_mb = {peak_rss_mb:.1f} MB")
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        layers = result["layers"]
        print(f"traced pass {result['traced_s']:.4f} s, untraced pass {result['untraced_s']:.4f} s")
        print("largest spans, share of the traced pass: total (self)")
        for name, calls, total, self_share in result["top_spans"]:
            print(f"  {name:42s} {calls:7d} calls {100 * total:6.2f} % ({100 * self_share:6.2f} %)")
        for name, value in layers.items():
            print(f"{name} = {value:.6g} {layer_unit(name)}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}

    correct = result["wrong"] == 0 and not result.get("verdict_change")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
