"""Run one workload's CLI passes in-process and check every report.

``run.py`` starts this script as a child process with the BLAS/OpenMP
thread count already pinned in its environment, and reads the findings
from ``<out>/result.json``.  Every pass calls ``spherestab.cli.main`` once
per workload config:

* a warm-up pass in the default CSV format (untimed; its runs still count);
* ``--trace 0``: timed ``--format json`` passes until ``--seconds`` have
  elapsed, at least two, each report compared byte for byte with the
  first pass's;
* ``--trace 1``: one JSON pass, the same pass traced, whose reports must
  equal the untraced ones byte for byte, and one JSON pass on seed + 1 whose
  verdicts (and so fail share) must equal the first seed's.

A run fails if ``main`` raises or returns non-zero, writes no report, fails
a value check, or writes a report that differs from its repeat.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from spherestab import cli  # noqa: E402

from spans import FIELD_METHODS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@dataclass
class Run:
    config: str
    label: str
    out: Path
    rc: int | None = None
    report: bytes | None = None
    failure: str | None = None      # why the run counts as failed
    wrong: bool = False             # the failure is a wrong or unstable output

    def fail(self, reason, wrong=False):
        self.failure = self.failure or reason
        self.wrong = self.wrong or wrong


def value_problem(command, doc):
    """Why a JSON report's values are wrong, or None."""
    if command == "spectrum":
        cfg = doc["config"]
        target = -2.0 * (cfg["k"] + cfg["l"]) if cfg["family"] == "clifford" else -float(cfg["n"])
        bad = [r["resolution"] for r in doc["rows"]
               if abs(r["lambda1"] - target) > 1e-6 or r["residual"] > 1e-8]
        return f"lambda1 not within 1e-6 of {target} or residual > 1e-8 at {bad}" if bad else None
    if command == "cutoff":
        return None if doc["passed"] is True else "cutoff passed is not true"
    if command == "estimates":
        bad = [r["name"] for r in doc["rows"] if r["margin"] < 0]
        return f"negative margin in {bad}" if bad else None
    if command == "cone-table":
        first = next((r["n"] for r in doc["rows"] if r["stable_possible"]), None)
        return None if first == 6 else f"first stable dimension {first}, expected 6"
    if command == "simons":
        ok = doc["identity_residual"] <= 1e-6 and doc["inequality_violation"] == 0.0
        return None if ok else "Simons identity residual or inequality violation"
    return None


def run_pass(workload, seed, label, out_root, json_format):
    """One call of cli.main per config; returns (runs, wall seconds of the calls)."""
    runs = []
    start = time.perf_counter()
    for i, config in enumerate(WORKLOADS[workload]):
        run = Run(config, label, out_root / label / str(i))
        argv = [*config.split(), "--seed", str(seed), "--out", str(run.out)]
        if json_format:
            argv += ["--format", "json"]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                run.rc = cli.main(argv)
            except Exception as exc:  # a crash is a failed run, not a benchmark error
                run.fail(f"{type(exc).__name__}: {exc}")
        runs.append(run)
    seconds = time.perf_counter() - start

    for run in runs:
        reports = sorted(run.out.iterdir()) if run.out.is_dir() else []
        if len(reports) == 1:
            run.report = reports[0].read_bytes().replace(str(run.out).encode(), b"OUT")
        if run.rc != 0:
            run.fail(f"exit code {run.rc}")
        if run.report is None:
            run.fail("no report")
        elif json_format:
            problem = value_problem(run.config.split()[0], json.loads(run.report))
            if problem:
                run.fail(f"value check: {problem}", wrong=True)
    return runs, seconds


def compare(first, repeat, what):
    """Fail each repeat run whose report differs from the first pass's."""
    for a, b in zip(first, repeat):
        if a.report is not None and b.report is not None and a.report != b.report:
            b.fail(f"report differs {what}", wrong=True)


def verdicts(runs):
    return [(r.rc, r.failure is None) for r in runs]


def layer_metrics(tracer, traced_s, untraced_s, runs):
    t = tracer.totals()
    c = tracer.counts

    def get(name, i):
        return t.get(name, (0, 0.0, 0.0))[i]

    m = {}
    for name in ("cli.main", "operators.assemble_jacobi", "spectrum.first_stability_eigenvalue",
                 "spectrum.simons_check", "geometry.measure_volume_growth",
                 "sampling.nearest_chart_point", "sampling.stratified_integral",
                 "sampling.volume_growth_sampled", "cutoff.cover_singular_set",
                 "cutoff.gradient_integral_estimate", "cutoff.mr_quality_report",
                 "estimates.local_A_bound"):
        m[f"{name}.self_s"] = get(name, 2)
    for name in ("operators.assemble_jacobi", "spectrum.first_stability_eigenvalue",
                 "geometry.measure_volume_growth", "sampling.nearest_chart_point",
                 "sampling.stratified_integral", "cutoff.gradient_integral_estimate",
                 "estimates.local_A_bound"):
        m[f"{name}.calls"] = get(name, 0)
    fields = [f"cutoff.CutoffField.{method}" for method in FIELD_METHODS]
    solves = c["spectrum.solves"]
    m.update({
        "operators.dofs": c["operators.dofs"],
        "operators.nnz": c["operators.nnz"],
        # 0 when the workload has no numeric eigensolve
        "spectrum.converged_share": c["spectrum.converged"] / solves if solves else 0.0,
        "spectrum.max_residual": c["spectrum.max_residual"],
        "sampling.samples": c["sampling.samples"],
        "cutoff.balls": c["cutoff.balls"],
        "cutoff.CutoffField.eval_s": sum(get(f, 1) for f in fields),
        "cutoff.CutoffField.calls": sum(get(f, 0) for f in fields),
        "cutoff.ball_point_pairs": c["cutoff.ball_point_pairs"],
        "estimates.default_volume_growth.total_s": get("estimates.default_volume_growth", 1),
        "trace.overhead_s": traced_s - untraced_s,
        # time inside wrapped library calls below cli.main, over the traced pass
        "trace.attributed_share": (get("cli.main", 1) - get("cli.main", 2)) / traced_s,
        "fail_share": sum(r.failure is not None for r in runs) / len(runs),
    })
    top = sorted(t.items(), key=lambda kv: -kv[1][1])[:16]
    return m, [(name, calls, total / traced_s, self_s / traced_s)
               for name, (calls, total, self_s) in top]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    w, seed, out = args.workload, args.seed, args.out

    runs, _ = run_pass(w, seed, "warm-up-csv", out, json_format=False)
    result = {}
    if args.trace == 0:
        first, seconds = run_pass(w, seed, "json-1", out, json_format=True)
        runs += first
        pass_s = [seconds]
        while len(pass_s) < 2 or sum(pass_s) < args.seconds:
            repeat, seconds = run_pass(w, seed, f"json-{len(pass_s) + 1}", out, json_format=True)
            compare(first, repeat, "from its repeat")
            runs += repeat
            pass_s.append(seconds)
        result["pass_s"] = pass_s
    else:
        base, untraced_s = run_pass(w, seed, "untraced", out, json_format=True)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_s = run_pass(w, seed, "traced", out, json_format=True)
        finally:
            tracer.remove()
        compare(base, traced, "with tracing on")
        other, _ = run_pass(w, seed + 1, "second-seed", out, json_format=True)
        runs += base + traced + other
        if verdicts(other) != verdicts(base):
            result["verdict_change"] = f"verdicts on seed {seed + 1} differ from seed {seed}"
        result["layers"], result["top_spans"] = layer_metrics(tracer, traced_s, untraced_s, runs)
        result["untraced_s"], result["traced_s"] = untraced_s, traced_s

    result.update({
        "attempted": len(runs),
        "failures": [f"{r.label} `{r.config}`: {r.failure}" for r in runs if r.failure],
        "wrong": sum(r.wrong for r in runs),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    })
    (out / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
