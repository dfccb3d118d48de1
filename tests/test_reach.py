"""Reach: every function of ``src/spherestab`` runs in what the reports run, or
has a recorded reason to stay.

A fresh interpreter starts ``sys.settrace`` before ``import spherestab``
(so functions that run at import count as called), runs every command line
of README.md's "Command line" block and every ``perfbench/workloads.py``
config through ``cli.main`` in CSV and in JSON at seed 0, then README's
python blocks.  Every function and method defined under ``src/spherestab``
(found by ``ast``, nested ones included) that never ran must be in
``UNREACHED``, and every name there must be one that never ran, so that
code only the tests call cannot creep back into the library unnoticed.
Test oracles live in ``tests/oracles.py``.  A reason that starts with
``benchmark read:`` quotes, in backticks, the expression by which
``perfbench/spans.py`` reads the function, and that expression must occur
there, so the reason goes stale with the benchmark.
"""

import ast
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spherestab"
SPANS = ROOT / "perfbench" / "spans.py"

_FIELD_METHOD = "benchmark read: perfbench/spans.py wraps it as {} in FIELD_METHODS"
_FIELD = ("ROADMAP item 11: the spectrum report's Rayleigh quotient of the ambient "
          "coordinates x_j (-> -n)")
_HESSIAN = ("the field protocol (value, gradient, Hessian) that fields.surface_laplacian "
            "reads; no report takes the Laplacian of a constant or coordinate field")

# qualified name -> why it stays in the library although no report runs it
UNREACHED = {
    "cli._failure": "error path: the report of a numerical failure",
    "cli._jsonable": "error path: json.dumps fallback for a numpy value in a payload",
    "cutoff.CutoffField.active_index": _FIELD_METHOD.format('`"active_index"`'),
    "cutoff.CutoffField.ambient_gradient": _FIELD_METHOD.format('`"ambient_gradient"`'),
    "cutoff.CutoffField.ambient_hessian": _FIELD_METHOD.format('`"ambient_hessian"`'),
    "cutoff.CutoffField.value": _FIELD_METHOD.format('`"value"`'),
    "cutoff.load_point_cloud": "CLI option: cutoff --singular-set FILE; no README line passes a file",
    "estimates.ssy_constants": "ROADMAP item 7: the improved Kato bound 1 + 2/n",
    "fields.AmbientCoordinateField.value": _FIELD,
    "fields.AmbientCoordinateField.ambient_gradient": _FIELD,
    "fields.AmbientCoordinateField.ambient_hessian": _HESSIAN,
    "fields.ConstantField.ambient_hessian": _HESSIAN,
    "fields._zero_hessian": _HESSIAN,
    "sampling.BoxEstimates.samples": ("benchmark read: perfbench/spans.py counts sampling.samples "
                                      "from `estimate.samples`"),
}

# run in a fresh interpreter: argv is the package directory, the CLI runs
# (JSON) and the python blocks (JSON); prints the (file, first line) of
# every package code object that ran, and the runs' exit codes
TRACE = r"""
import json, os, sys
package, runs, blocks = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
ran = set()
sys.settrace(lambda frame, event, arg: ran.add(frame.f_code))
from spherestab import cli
codes = [cli.main(argv) for argv in runs]
for block in blocks:
    exec(compile(block, "README.md", "exec"), {})
sys.settrace(None)
ran = {(os.path.relpath(c.co_filename, package), c.co_firstlineno)
       for c in ran if c.co_filename.startswith(package + os.sep)}
print(json.dumps({"codes": codes, "ran": sorted(ran)}))
"""


def _command_lines():
    """README's "Command line" block and the benchmark configs, as argv lists."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    return lines + [config.split() for configs in workloads.values() for config in configs]


def _defined():
    """(file, first line) -> qualified name of every function under the package.

    The first line is a code object's: the first decorator's, else the def's."""
    names = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                names[(path.name, first)] = f"{prefix}.{child.name}"
                walk(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}.{child.name}")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, path.stem)
    return names


def test_every_unreached_function_has_a_recorded_reason(tmp_path):
    runs = [[*argv, "--seed", "0", "--format", fmt, "--out", str(tmp_path / f"{i}-{fmt}")]
            for i, argv in enumerate(_command_lines()) for fmt in ("csv", "json")]
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    assert runs and blocks
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                                     os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", TRACE, str(PACKAGE), json.dumps(runs),
                            json.dumps(blocks)],
                           capture_output=True, text=True, env=env, cwd=tmp_path, check=True)
    doc = json.loads(child.stdout.splitlines()[-1])
    assert doc["codes"] == [0] * len(runs)
    ran = {tuple(key) for key in doc["ran"]}
    unreached = {name for key, name in _defined().items() if key not in ran}
    missing = sorted(unreached - set(UNREACHED))  # never run, and no recorded reason
    stale = sorted(set(UNREACHED) - unreached)    # recorded, but it ran or is gone
    assert (missing, stale) == ([], [])


def _stale_benchmark_reads(reasons, spans):
    """The ``benchmark read:`` reasons that quote no expression, or quote one
    that the benchmark source ``spans`` does not contain."""
    stale = []
    for name, reason in sorted(reasons.items()):
        if reason.startswith("benchmark read:"):
            quoted = re.findall(r"`([^`]+)`", reason)
            if not quoted or any(expr not in spans for expr in quoted):
                stale.append(name)
    return stale


def test_benchmark_reads_are_quoted_from_the_benchmark():
    spans = SPANS.read_text()
    assert sum(reason.startswith("benchmark read:") for reason in UNREACHED.values()) == 5
    assert _stale_benchmark_reads(UNREACHED, spans) == []
    # a benchmark that stops reading an expression leaves its entries stale
    for expr, names in [("estimate.samples", 1), ('"active_index"', 1)]:
        assert len(_stale_benchmark_reads(UNREACHED, spans.replace(expr, "0"))) == names
    assert _stale_benchmark_reads({"f": "benchmark read: no quoted expression"}, spans) == ["f"]
