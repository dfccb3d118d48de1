"""Command-line interface: reports, determinism, config handling, exit codes."""

import argparse
import dataclasses
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spherestab.cli as cli
import spherestab.cutoff as cut
import spherestab.estimates as est
import spherestab.geometry as geo
import spherestab.operators as ops
from spherestab.cli import main
from spherestab.errors import BudgetInfeasible

from oracles import BoundViolation


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_command_lines():
    """The argv of each command in README.md's "Command line" block, "spherestab" dropped."""
    text = README.read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def _child_env():
    """The environment of a child interpreter that imports this checkout's spherestab."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cone_table_report(tmp_path):
    assert run(tmp_path, "cone-table", "--n-max", "10") == 0
    text = (tmp_path / "cone-table.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "n,link_bound,threshold,stable_possible,margin"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[3] for r in rows] == ["False"] * 5 + ["True"] * 5
    assert rows[5][4] == "0.25"


def test_spectrum_torus_json(tmp_path):
    assert run(tmp_path, "spectrum", "--family", "clifford", "--k", "1", "--l", "1",
               "--resolutions", "16,32", "--format", "json") == 0
    doc = json.loads((tmp_path / "spectrum_clifford_1_1.json").read_text())
    assert doc["analytic_lambda1"] == -4.0
    numeric = [r for r in doc["rows"] if r["backend"] == "numeric"]
    assert {r["resolution"] for r in numeric} == {16, 32}
    for r in numeric:
        assert abs(r["lambda1"] + 4.0) <= 1e-6
        assert r["residual"] <= 1e-8
        assert set(r) >= {"surface", "backend", "resolution", "lambda1", "residual"}


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["cutoff", "--family", "clifford", "--k", "1", "--l", "1", "--points", "2",
            "--epsilon", "0.05", "--exponent", "1", "--kind", "inf", "--seed", "7",
            "--format", "json"]
    assert main([*argv, "--out", str(a)]) == 0
    assert main([*argv, "--out", str(b)]) == 0
    fa = (a / "cutoff_clifford_1_1.json").read_bytes()
    fb = (b / "cutoff_clifford_1_1.json").read_bytes()
    fa = fa.replace(str(a).encode(), b"OUT")
    fb = fb.replace(str(b).encode(), b"OUT")
    assert fa == fb


def test_inf_cutoff_csv_report(tmp_path):
    argv = ["cutoff", "--family", "clifford", "--k", "1", "--l", "1", "--points", "2",
            "--epsilon", "0.05", "--exponent", "1", "--kind", "inf", "--seed", "7"]
    assert run(tmp_path, *argv) == 0
    lines = (tmp_path / "cutoff_clifford_1_1.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# config:")
    assert json.loads(lines[1])["passed"] is True


def test_product_cutoff_json_report(tmp_path):
    # the product branch: the quality triple with its three bounds and
    # stderrs, written byte for byte the same on a repeat
    argv = ["cutoff", "--family", "clifford", "--k", "1", "--l", "1", "--points", "20",
            "--epsilon", "0.5", "--exponent", "0", "--kind", "product", "--format", "json"]
    assert run(tmp_path, *argv) == 0
    path = tmp_path / "cutoff_clifford_1_1.json"
    first = path.read_bytes()
    doc = json.loads(first)
    assert doc["passed"] is True
    assert len(doc["bounds"]) == 3 and len(doc["stderrs"]) == 3
    assert run(tmp_path, *argv) == 0
    assert path.read_bytes() == first


def test_failing_bound_still_writes_report(tmp_path, monkeypatch):
    # inflating |grad phi|^2 25-fold pushes the integral past its bound; the
    # run must exit 1 and still leave its report with the failed verdict
    original = cut.tangential_gradient_sq
    monkeypatch.setattr(cut, "tangential_gradient_sq", lambda *a: 25.0 * original(*a))
    argv = ["cutoff", "--family", "clifford", "--k", "1", "--l", "1", "--points", "2",
            "--epsilon", "0.05", "--exponent", "1", "--kind", "inf", "--seed", "7"]
    assert run(tmp_path, *argv) == 1
    lines = (tmp_path / "cutoff_clifford_1_1.csv").read_text().strip().splitlines()
    assert json.loads(lines[1])["passed"] is False


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "equator", "n": 2, "resolutions": [16, 32], "format": "json"}))
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "spectrum_equator_2.json").read_text())
    assert doc["config"]["family"] == "equator"
    # flag overrides the file value
    assert main(["spectrum", "--config", str(cfg), "--resolutions", "16",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "spectrum_equator_2.json").read_text())
    assert doc["config"]["resolutions"] == [16]


def test_cone_table_config_builds_no_surface(tmp_path):
    # cone-table reads no surface, so the surface keys of a config file are
    # not checked against one: n = 5 against the default clifford_1_1, or an
    # equator of dimension 0, still give the table
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "n_max": 8}))
    assert main(["cone-table", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    assert run(tmp_path / "flag", "cone-table", "--n-max", "8") == 0
    file, flag = (tmp_path / "file" / "cone-table.csv", tmp_path / "flag" / "cone-table.csv")
    assert file.read_text().splitlines()[1:] == flag.read_text().splitlines()[1:]
    # the embedded configs differ in the config's own n and the out path alone
    assert _config_line(file)["n"] == 5
    assert ({**_config_line(file), "n": None, "out": None}
            == {**_config_line(flag), "n": None, "out": None})
    cfg.write_text(json.dumps({"family": "equator", "n": 0}))
    assert main(["cone-table", "--config", str(cfg), "--out", str(tmp_path / "equator")]) == 0
    assert os.listdir(tmp_path / "equator") == ["cone-table.csv"]


def test_outdir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("SPHERESTAB_OUTDIR", str(tmp_path))
    assert main(["cone-table", "--n-max", "6"]) == 0
    assert (tmp_path / "cone-table.csv").exists()


# singular-set files whose points break a rule of cover_singular_set, with
# the reason that both the CLI's config error and the library's ValueError name
BAD_POINT_CLOUDS = {
    "ragged": ("1 0 0 0\n0 1 0\n", "inconsistent coordinate count"),
    "nan": ("1 0 0 0\nnan 1 0 0\n", "must have finite coordinates"),
    "norm-2": ("1 0 0 0\n2 0 0 0\n", r"must lie on the unit sphere \(\|x\| = 1 within 1e-9\)"),
    "width 5": ("1 0 0 0 0\n0 1 0 0 0\n", r"need 4 coordinates, got shape \(2, 5\)"),  # the torus lies in R^4
}


def test_config_errors_exit_2(tmp_path):
    assert run(tmp_path, "spectrum", "--family", "clifford", "--k", "0", "--l", "1") == 2
    assert run(tmp_path, "spectrum", "--resolutions", "4") == 2
    assert run(tmp_path, "spectrum", "--family", "equator", "--n", "0") == 2
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"who": 1}))
    assert main(["cone-table", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    cfg.write_text(json.dumps({"family": "sphere"}))
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "none")]) == 2
    assert not (tmp_path / "none").exists()
    # a singular-set file that cannot be read, or points off the unit sphere
    bad_clouds = {
        "missing": None,
        "non-numeric": "1 0 abc 0\n",
        **{case: text for case, (text, _) in BAD_POINT_CLOUDS.items()},
        "empty": "",  # no point: a cover of nothing would pass vacuously
        "comments only": "# no points\n",
    }
    for case, text in bad_clouds.items():
        cloud = tmp_path / f"{case}.txt"
        if text is not None:
            cloud.write_text(text)
        argv = ["cutoff", "--family", "clifford", "--k", "1", "--l", "1", "--singular-set",
                str(cloud), "--epsilon", "0.1", "--exponent", "1", "--kind", "inf"]
        assert main([*argv, "--out", str(tmp_path / "none")]) == 2, case
        assert not (tmp_path / "none").exists(), case


@pytest.mark.parametrize("case", BAD_POINT_CLOUDS)
def test_point_rules_are_the_librarys(tmp_path, capsys, case):
    # one refusal table for both entry points: the library refuses the
    # points with a ValueError, and the CLI turns the same reason into a
    # configuration error (exit 2, no report)
    text, reason = BAD_POINT_CLOUDS[case]
    rows = [[float(v) for v in line.split()] for line in text.splitlines()]
    with pytest.raises(ValueError, match=reason):
        cut.cover_singular_set(rows, 2, 1, 0.1)
    cloud = tmp_path / "cloud.txt"
    cloud.write_text(text)
    argv = ["cutoff", "--family", "clifford", "--k", "1", "--l", "1", "--singular-set", str(cloud),
            "--epsilon", "0.1", "--exponent", "1", "--kind", "inf", "--out", str(tmp_path / "none")]
    assert main(argv) == 2
    assert re.search(reason, capsys.readouterr().err)
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("values", [{"k": 1.5}, {"resolutions": "16"}, {"radii": [0.1, "x"]},
                                    {"seed": True}])
def test_config_file_value_types_exit_2(tmp_path, values, capsys):
    # a mistyped config-file value is a configuration error, not a crash
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(values))
    command = "estimates" if "radii" in values else "spectrum"
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "none")]) == 2
    assert f"{next(iter(values))} = " in capsys.readouterr().err
    assert not (tmp_path / "none").exists()


# (command, key, flag text, config-file value) out of the option's range:
# unchecked, each one crashes its run, ends in a numerical failure or
# passes vacuously on an empty input
_OUT_OF_RANGE = [
    ("cone-table", "n_max", "0", 0),
    ("simons", "samples", "0", 0),
    ("simons", "samples", "-3", -3),
    ("cutoff", "points", "-2", -2),
    ("cutoff", "points", "0", 0),
    ("estimates", "points", "0", 0),
    ("estimates", "radii", "0", [0]),
    ("estimates", "radii", "3", [3]),
    ("estimates", "radii", "nan", [float("nan")]),
    ("estimates", "radii", ",", []),
    ("spectrum", "resolutions", ",", []),
    ("cutoff", "epsilon", "nan", float("nan")),
    ("cutoff", "exponent", "nan", float("nan")),
    ("simons", "seed", "-1", -1),
    ("cutoff", "seed", "-1", -1),
]


@pytest.mark.parametrize("command,argv,config", [
    *[(command, ["--" + key.replace("_", "-"), text], None) for command, key, text, _ in _OUT_OF_RANGE],
    *[(command, [], {key: value}) for command, key, _, value in _OUT_OF_RANGE],
    ("spectrum", [], [1, 2]),  # a config file that holds no JSON object
    ("spectrum", [], "x"),
], ids=str)
def test_out_of_range_values_are_config_errors(tmp_path, capsys, command, argv, config):
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))  # NaN is written as the literal json.load reads
        argv = ["--config", str(cfg)]
    assert main([command, *argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


# the flags of every subcommand: (flag, dest, choices, or the repr of what
# its converter makes of "2")
_COMMON_FLAGS = {("--config", "config", "'2'"), ("--seed", "seed", "2"), ("--out", "out", "'2'"),
                 ("--format", "format", ("csv", "json"))}
_SURFACE_FLAGS = {("--family", "family", ("clifford", "equator")), ("--k", "k", "2"),
                  ("--l", "l", "2"), ("--n", "n", "2")}
CLI_SURFACE = {
    "spectrum": _COMMON_FLAGS | _SURFACE_FLAGS | {("--resolutions", "resolutions", "[2]")},
    "simons": _COMMON_FLAGS | _SURFACE_FLAGS | {("--samples", "samples", "2")},
    "cutoff": _COMMON_FLAGS | _SURFACE_FLAGS | {
        ("--points", "points", "2"), ("--singular-set", "singular_set", "'2'"),
        ("--epsilon", "epsilon", "2.0"), ("--exponent", "exponent", "2.0"),
        ("--kind", "kind", ("inf", "product")),
    },
    "estimates": _COMMON_FLAGS | _SURFACE_FLAGS | {("--radii", "radii", "[2.0]"),
                                                   ("--points", "points", "2")},
    "cone-table": _COMMON_FLAGS | {("--n-max", "n_max", "2")},
}


def test_cli_surface_is_pinned():
    # a flag dropped, renamed or retyped by the option table fails here; no
    # flag has a default, so a config-file value is overridden only by a flag
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {}
    for name, p in sub.choices.items():
        actions = [a for a in p._actions if a.dest != "help"]
        assert all(a.default is None for a in actions), name
        surface[name] = {(" ".join(a.option_strings), a.dest,
                          tuple(a.choices) if a.choices else repr((a.type or str)("2")))
                         for a in actions}
    assert surface == CLI_SURFACE


@pytest.mark.parametrize("argv", [[], *([c] for c in CLI_SURFACE)], ids=" ".join)
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: spherestab")


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    # after a first call has built the parser, later calls construct none
    assert run(tmp_path, "cone-table", "--n-max", "3") == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert run(tmp_path, "spectrum", "--family", "clifford", "--k", "1", "--l", "1",
               "--resolutions", "16") == 0
    assert run(tmp_path, "cutoff", "--family", "clifford", "--k", "1", "--l", "1", "--points", "2",
               "--epsilon", "0.05", "--exponent", "1", "--kind", "inf") == 0
    assert run(tmp_path, "cone-table", "--n-max", "4") == 0
    assert built == []


def _config_line(path):
    return json.loads(path.read_text().splitlines()[0].removeprefix("# config: "))


def test_parser_reuse_carries_nothing_between_calls(tmp_path, capsys):
    # a flag of one call does not reach the next
    argv = ["cone-table", "--n-max", "4", "--out", str(tmp_path / "format")]
    assert main([*argv, "--format", "json"]) == 0
    assert main(argv) == 0
    assert sorted(os.listdir(tmp_path / "format")) == ["cone-table.csv", "cone-table.json"]
    assert _config_line(tmp_path / "format" / "cone-table.csv")["format"] == "csv"
    # nor does a config-file value
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n_max": 3}))
    assert main(["cone-table", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    assert run(tmp_path / "after", "cone-table") == 0
    assert _config_line(tmp_path / "after" / "cone-table.csv")["n_max"] == 10
    # a call refused by argparse leaves the next one as a fresh process runs it
    with pytest.raises(SystemExit) as exc:
        run(tmp_path / "refused", "spectrum", "--k", "x")
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    argv = ["spectrum", "--family", "clifford", "--k", "1", "--l", "1", "--resolutions", "16,32",
            "--out", str(tmp_path / "good")]
    assert main(argv) == 0
    report = tmp_path / "good" / "spectrum_clifford_1_1.csv"
    in_process = report.read_bytes()
    report.unlink()
    subprocess.run([sys.executable, "-m", "spherestab.cli", *argv], env=_child_env(),
                   capture_output=True, check=True)
    assert report.read_bytes() == in_process


def test_numpy_typed_payload_is_written_as_plain_values(tmp_path):
    # numpy scalars and arrays in a payload are written as the Python values
    # they hold, in CSV cells and in JSON (a numpy.bool_ once crashed the CSV
    # writer); a float32 is written at full double precision, not as str()
    # shortens it
    M = geo.clifford_hypersurface((1, 1))
    row = {"flag": np.bool_(True), "count": np.int64(3), "x": np.float32(0.1)}
    payload = {"rows": [row], "values": np.array([0.5, 2.0])}
    plain = {"rows": [{"flag": True, "count": 3, "x": 0.10000000149011612}], "values": [0.5, 2.0]}
    for fmt in ("csv", "json"):
        config = cli.RunConfig(command="simons", out=str(tmp_path / fmt), format=fmt)
        embedded = dataclasses.asdict(config)
        result = cli.Result(payload, columns=["flag", "count", "x"])
        text = Path(cli._write_report(config, M, result)).read_text()
        if fmt == "json":
            assert text == json.dumps({"config": embedded, **plain}, indent=2, sort_keys=True) + "\n"
        else:
            config_line = "# config: " + json.dumps(embedded, sort_keys=True)
            assert text == f"{config_line}\nflag,count,x\nTrue,3,0.10000000149011612\n"
            no_columns = Path(cli._write_report(config, M, cli.Result(payload))).read_text()
            assert no_columns == f"{config_line}\n{json.dumps(plain, sort_keys=True)}\n"


def test_config_file_accepts_int_for_float(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"radii": [1, 0.5], "points": 1}))
    assert main(["estimates", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_spectrum_builds_no_csr_matrix(tmp_path, monkeypatch):
    # every rung of a built-in family is certified on its per-axis nest,
    # with neither a matrix nor the (m, n) node array of the grid
    def refuse(*args):
        raise AssertionError("the spectrum run built a full-grid view")

    monkeypatch.setattr(geo, "_tensor_grid", refuse)
    assert run(tmp_path, "spectrum", "--family", "clifford", "--k", "2", "--l", "1",
               "--resolutions", "16,20") == 0


def test_cli_import_loads_no_scipy(tmp_path):
    # the library imports no scipy (only the tests' oracles use it).  With
    # scipy made unimportable, every subcommand still runs.
    code = """
import sys, spherestab.cli
print([m for m in sys.modules if m.startswith('scipy')])
sys.modules['scipy'] = None
surface = ['--family', 'clifford', '--k', '1', '--l', '1']
runs = [
    ['spectrum', *surface, '--resolutions', '16,32'],
    ['simons', *surface, '--samples', '20'],
    ['estimates', *surface, '--radii', '0.25', '--points', '1'],
    ['cone-table', '--n-max', '6'],
    ['cutoff', *surface, '--points', '20', '--epsilon', '0.01', '--exponent', '1', '--kind', 'inf'],
    ['cutoff', *surface, '--points', '1', '--epsilon', '0.05', '--exponent', '0', '--kind', 'product'],
]
print([spherestab.cli.main([*argv, '--out', sys.argv[1]]) for argv in runs])
"""
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=_child_env(),
                         capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[0, 0, 0, 0, 0, 0]")


def test_infeasible_budget_exits_3(tmp_path):
    code = run(tmp_path, "cutoff", "--family", "clifford", "--k", "1", "--l", "1",
               "--points", "1", "--epsilon", "0.05", "--exponent", "2", "--kind", "inf")
    assert code == 3


def test_infeasible_budget_writes_failure_report(tmp_path):
    code = run(tmp_path, "cutoff", "--family", "clifford", "--k", "1", "--l", "1",
               "--points", "1", "--epsilon", "0.05", "--exponent", "2", "--kind", "inf")
    assert code == 3
    lines = (tmp_path / "cutoff_clifford_1_1.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# config:")
    assert json.loads(lines[1])["failure"].startswith("BudgetInfeasible: ")


@pytest.mark.parametrize("epsilon", ["100", "5000"])
def test_exponent_above_dimension_writes_failure_report(tmp_path, epsilon):
    # at q > n the budget sum r^(n-q) grows as the balls shrink: the run is
    # refused whatever epsilon (one ball of radius 0.5 would cost 2 < 100,
    # and at 5000 the r = 1e-3 floor would cost 1,000), with the reason
    argv = ["cutoff", "--family", "clifford", "--k", "1", "--l", "1", "--points", "1",
            "--epsilon", epsilon, "--exponent", "3", "--kind", "inf", "--format", "json"]
    assert run(tmp_path, *argv) == 3
    doc = json.loads((tmp_path / "cutoff_clifford_1_1.json").read_text())
    assert doc["failure"].startswith("BudgetInfeasible: exponent q=3.0 > n=2: ")
    assert "use q <= n" in doc["failure"]


def test_bound_violation_writes_failure_report(tmp_path, monkeypatch):
    # no subcommand raises BoundViolation (only the packing oracle does); one
    # that did would get the failure report and exit 3 of every other
    # SpherestabError
    def violate(config, M):
        raise BoundViolation("degree 27 exceeds (3.0)^3 - 1")

    monkeypatch.setitem(cli.COMMANDS, "cone-table",
                        dataclasses.replace(cli.COMMANDS["cone-table"], run=violate))
    assert run(tmp_path, "cone-table", "--n-max", "3", "--format", "json") == 3
    doc = json.loads((tmp_path / "cone-table.json").read_text())
    assert doc["failure"] == "BoundViolation: degree 27 exceeds (3.0)^3 - 1"


def test_out_of_memory_rung_writes_rows_and_failure(tmp_path, monkeypatch):
    # a rung that does not fit: `axis_pencils` is made to raise, no
    # large array is allocated; the earlier rows are kept and the exit is 3
    original = ops.axis_pencils

    def out_of_memory_at_32(M, resolution):
        if resolution == 32:
            raise MemoryError("Unable to allocate 8.00 GiB")
        return original(M, resolution)

    monkeypatch.setattr(ops, "axis_pencils", out_of_memory_at_32)
    argv = ["spectrum", "--family", "clifford", "--k", "1", "--l", "1", "--resolutions", "16,32,64"]
    assert run(tmp_path, *argv, "--format", "json") == 3
    doc = json.loads((tmp_path / "spectrum_clifford_1_1.json").read_text())
    assert doc["failure"] == "MemoryError: out of memory at resolution 32"
    assert [(r["backend"], r["resolution"]) for r in doc["rows"]] == [("analytic", None), ("numeric", 16)]
    assert run(tmp_path, *argv) == 3
    lines = (tmp_path / "spectrum_clifford_1_1.csv").read_text().strip().splitlines()
    assert len(lines) == 5 and lines[4] == "# failure: MemoryError: out of memory at resolution 32"


def test_refused_rung_writes_rows_and_failure(tmp_path, monkeypatch):
    # a rung whose pencil fails the certificate (one negative 1-D edge
    # weight) is refused like a rung out of memory: the earlier rows are
    # kept, the failure names the refusal and the exit is 3
    original = ops.axis_pencils

    def negative_weight_at_32(M, resolution):
        pencil = original(M, resolution)
        if resolution == 32:
            weights = [w.copy() for w in pencil.weights]
            weights[0][0] = -1.0
            pencil = dataclasses.replace(pencil, weights=tuple(weights))
        return pencil

    monkeypatch.setattr(ops, "axis_pencils", negative_weight_at_32)
    argv = ["spectrum", "--family", "clifford", "--k", "1", "--l", "1", "--resolutions", "16,32,64"]
    assert run(tmp_path, *argv, "--format", "json") == 3
    doc = json.loads((tmp_path / "spectrum_clifford_1_1.json").read_text())
    assert doc["failure"].startswith("AssemblyFailure: ")
    assert [(r["backend"], r["resolution"]) for r in doc["rows"]] == [("analytic", None), ("numeric", 16)]
    assert run(tmp_path, *argv) == 3
    lines = (tmp_path / "spectrum_clifford_1_1.csv").read_text().strip().splitlines()
    assert lines[1] == "surface,backend,resolution,lambda1,residual,abs_err"
    assert len(lines) == 5 and lines[4].startswith("# failure: AssemblyFailure: ")


class _ArrayMemoryError(MemoryError):
    """Stands in for the private MemoryError subclass numpy raises."""


@pytest.mark.parametrize("module, name, argv", [
    (cut, "gradient_integral_estimate", ["cutoff", "--family", "clifford", "--k", "1", "--l", "1",
                                         "--points", "1", "--epsilon", "0.5", "--exponent", "1",
                                         "--kind", "inf"]),
    (est, "local_A_bound", ["estimates", "--family", "clifford", "--k", "1", "--l", "1",
                            "--points", "1"]),
], ids=["cutoff", "estimates"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_of_memory_writes_failure_report(tmp_path, monkeypatch, module, name, argv, fmt):
    # any command that runs out of memory writes its one report, whose
    # failure names the builtin MemoryError, and exits 3; the failing call
    # is made to raise, so nothing large is allocated
    def out_of_memory(*args, **kwargs):
        raise _ArrayMemoryError("Unable to allocate 314. MiB for an array with shape (857238, 8, 6)")

    monkeypatch.setattr(module, name, out_of_memory)
    assert run(tmp_path, *argv, "--format", fmt) == 3
    (report,) = tmp_path.iterdir()
    lines = report.read_text().splitlines()
    doc = json.loads("\n".join(lines) if fmt == "json" else lines[1])
    assert doc["failure"] == ("MemoryError: Unable to allocate 314. MiB for an array with shape "
                              "(857238, 8, 6)")


def test_estimates_cli(tmp_path):
    assert run(tmp_path, "estimates", "--family", "clifford", "--k", "1", "--l", "1",
               "--points", "1", "--radii", "0.25,0.5") == 0
    lines = (tmp_path / "estimates_clifford_1_1.csv").read_text().strip().splitlines()
    assert lines[1] == "name,n,lhs,rhs,margin,stderr"
    assert sum(1 for line in lines if line.startswith("local_A_bound")) == 2
    assert any(line.startswith("l4_identity") for line in lines)


def test_estimates_ball_area_once_per_radius(tmp_path, monkeypatch):
    # one ball area per radius within a run, plus the l4 row's whole-surface
    # ball (radius pi), and the rows of a per-centre local_A_bound that
    # computes its own area
    calls = []
    area = est.ball_area
    monkeypatch.setattr(est, "ball_area", lambda M, r: calls.append(r) or area(M, r))
    argv = ["estimates", "--family", "clifford", "--k", "1", "--l", "2", "--points", "4",
            "--radii", "0.1,0.5,1.0", "--seed", "3", "--format", "json"]
    assert run(tmp_path, *argv) == 0
    assert calls == [0.1, 0.5, 1.0, math.pi]
    doc = json.loads((tmp_path / "estimates_clifford_1_2.json").read_text())
    M = geo.clifford_hypersurface((1, 2))
    _, centers = geo.sample_points(M, 4, seed=3)
    expected = [est.local_A_bound(M, c, r, doc["lambda1"], C_V=doc["C_V"])[0].row()
                for r in (0.1, 0.5, 1.0) for c in centers]
    assert len(calls) == 4 + len(expected)
    assert doc["rows"][:-1] == json.loads(json.dumps(expected))


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=" ".join)
def test_readme_verdicts_do_not_depend_on_the_seed(tmp_path, argv):
    # an appended --seed overrides one the line sets itself
    codes = [main([*argv, "--seed", str(seed), "--out", str(tmp_path / str(seed))]) for seed in range(5)]
    assert len(set(codes)) == 1, codes


def test_readme_python_blocks_run():
    # every python block of README.md runs as written, so the documented API
    # cannot drift from the code; a warning is an error here, as everywhere
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_estimates_volume_growth_is_seed_independent(tmp_path):
    # the centres move with the seed; C_V and the exact rows must not
    docs = []
    for seed in ("0", "7"):
        out = tmp_path / seed
        assert main(["estimates", "--family", "clifford", "--k", "2", "--l", "2",
                     "--points", "5", "--seed", seed, "--format", "json", "--out", str(out)]) == 0
        docs.append(json.loads((out / "estimates_clifford_2_2.json").read_text()))
    assert docs[0]["C_V"] == docs[1]["C_V"]
    assert docs[0]["rows"] == docs[1]["rows"]
    assert all(r["stderr"] == 0.0 and r["lhs"] > 0.0 for r in docs[0]["rows"])


def test_cutoff_singular_set_file(tmp_path):
    from spherestab import geometry as geo

    torus = geo.clifford_hypersurface((1, 1))
    _, pts = geo.sample_points(torus, 2, seed=3)
    cloud = tmp_path / "sing.txt"
    cloud.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in pts) + "\n")
    code = run(tmp_path, "cutoff", "--family", "clifford", "--k", "1", "--l", "1",
               "--singular-set", str(cloud), "--epsilon", "0.1", "--exponent", "1",
               "--kind", "inf", "--format", "json")
    assert code == 0
    doc = json.loads((tmp_path / "cutoff_clifford_1_1.json").read_text())
    assert len(doc["radii"]) == 2


def test_product_cover_of_a_cluster_is_twice_its_spread(tmp_path):
    # 201 torus points along one chart axis, 1.5e-3 apart: one cluster of
    # chord spread 0.15, whose product ball needs radius 0.3 (the cutoff
    # vanishes on B(p, r/2)); six times the spread would spend
    # sum r^n = 0.403 >= epsilon = 0.1 and refuse the cover
    chart = geo.clifford_hypersurface((1, 1)).chart
    U = np.stack([np.full(201, 1.0), 2.0 + 0.0015 * np.arange(201)], axis=-1)
    cloud = tmp_path / "arc.txt"
    cloud.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in chart.embed(U)) + "\n")
    code = run(tmp_path, "cutoff", "--family", "clifford", "--k", "1", "--l", "1",
               "--singular-set", str(cloud), "--epsilon", "0.1", "--exponent", "0",
               "--kind", "product", "--format", "json")
    doc = json.loads((tmp_path / "cutoff_clifford_1_1.json").read_text())
    assert code == 0, doc.get("failure")
    # the area bound is C_V sum r^n, so one ball of radius 0.3 reads C_V 0.09
    assert abs(doc["bounds"][0] / doc["C_V"] - 0.09) <= 1e-4
    assert doc["passed"] and 0.0 < doc["area_not_one"] <= doc["bounds"][0]


def test_cutoff_reaches_four_dimensional_products(tmp_path):
    # one ball at the chart centre of clifford(2, 2): its chart box needs the
    # nearest chart point of a 4-dimensional chart (closed-form inverse)
    from spherestab import geometry as geo

    chart = geo.clifford_hypersurface((2, 2)).chart
    cloud = tmp_path / "centre.txt"
    centre = chart.embed(chart.box.mean(axis=1))
    cloud.write_text(" ".join(repr(float(v)) for v in centre) + "\n")
    code = run(tmp_path, "cutoff", "--family", "clifford", "--k", "2", "--l", "2",
               "--singular-set", str(cloud), "--epsilon", "0.01", "--exponent", "1",
               "--kind", "inf", "--format", "json")
    assert code == 0
    doc = json.loads((tmp_path / "cutoff_clifford_2_2.json").read_text())
    assert doc["passed"] and 0.0 < doc["integral"] <= doc["bound"]


def _limit_address_space_to_1_gib():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    ["--k", "2", "--l", "2", "--points", "3", "--kind", "product"],
    ["--k", "3", "--l", "3", "--points", "1", "--kind", "inf"],
], ids=" ".join)
def test_high_dimensional_cutoff_fits_in_1_gib(tmp_path, argv):
    # 96 strata per axis would make 96^4 = 85M cells in the n = 4 product
    # report, and 14 strata 14^6 = 7.5M cells in one n = 6 ball box; the
    # counts are capped (30^4 and 9^6 cells), and the n = 6 box's 1.6M
    # sample rows are formed a chunk at a time.  A child whose address
    # space is 1 GiB, with OpenBLAS on one thread (each thread's buffers
    # reserve address space), must exit 0 and write the unlimited child's
    # report and stdout byte for byte, where an uncapped grid or a box
    # formed whole raises MemoryError instead of meeting the host's
    # out-of-memory killer
    argv = ["cutoff", "--family", "clifford", *argv, "--epsilon", "0.5", "--exponent", "1",
            "--format", "json", "--out", str(tmp_path)]
    env = {**_child_env(), "OPENBLAS_NUM_THREADS": "1"}
    runs = []
    for preexec_fn in (None, _limit_address_space_to_1_gib):
        out = subprocess.run([sys.executable, "-m", "spherestab.cli", *argv], env=env,
                             capture_output=True, text=True, preexec_fn=preexec_fn)
        assert out.returncode == 0, out.stderr[-2000:]
        (report,) = tmp_path.iterdir()
        runs.append((out.stdout, report.read_text()))
        report.unlink()
    assert runs[0] == runs[1]
    assert json.loads(runs[0][1])["passed"] is True


@pytest.mark.parametrize("argv", [
    ["--family", "clifford", "--k", "3", "--l", "3", "--resolutions", "16,32,64"],
    ["--family", "equator", "--n", "6", "--resolutions", "64"],
], ids=" ".join)
def test_high_dimensional_spectrum_fits_in_1_gib(tmp_path, argv):
    # n = 6 rungs of 64^6 nodes: each is certified on its per-axis nest of
    # 64 nodes per axis, where open-grid weights of 64^4 (S^3 x S^3) or 64^5
    # (S^6) entries took 1.2 GB or raised MemoryError; the child under a
    # 1 GiB address space, OpenBLAS on one thread, must exit 0 and write the
    # unlimited child's report and stdout byte for byte
    argv = ["spectrum", *argv, "--format", "json", "--out", str(tmp_path)]
    env = {**_child_env(), "OPENBLAS_NUM_THREADS": "1"}
    runs = []
    for preexec_fn in (None, _limit_address_space_to_1_gib):
        out = subprocess.run([sys.executable, "-m", "spherestab.cli", *argv], env=env,
                             capture_output=True, text=True, preexec_fn=preexec_fn)
        assert out.returncode == 0, out.stderr[-2000:]
        (report,) = tmp_path.iterdir()
        runs.append((out.stdout, report.read_text()))
        report.unlink()
    assert runs[0] == runs[1]
    doc = json.loads(runs[0][1])
    assert doc["rows"][-1]["resolution"] == 64 and doc["rows"][-1]["abs_err"] == 0.0


def test_cutoff_lowers_radius_floor_for_many_points(tmp_path):
    # twenty clusters at r_min = 1e-3 spend 0.02 >= epsilon = 0.01; the
    # library's automatic floor drops to 0.5 * (0.01 / 20) = 2.5e-4 instead
    # of refusing, and stays at 1e-3 where 150 such balls fit in epsilon = 1.0
    torus = geo.clifford_hypersurface((1, 1))
    for count, epsilon, floor in ((20, 0.01, 0.5 * (0.01 / 20)), (150, 1.0, 1e-3)):
        _, pts = geo.sample_points(torus, count, seed=0, pad=0.05)
        auto = cut.cover_singular_set(pts, 2, 1, epsilon)
        fixed = cut.cover_singular_set(pts, 2, 1, epsilon, r_min=floor)
        assert np.array_equal(auto.centers, fixed.centers) and np.array_equal(auto.radii, fixed.radii)
    _, pts = geo.sample_points(torus, 20, seed=0, pad=0.05)
    with pytest.raises(BudgetInfeasible, match="lower r_min or raise epsilon"):
        cut.cover_singular_set(pts, 2, 1, 0.01, r_min=1e-3)
    argv = ["cutoff", "--family", "clifford", "--k", "1", "--l", "1", "--points", "20",
            "--epsilon", "0.01", "--exponent", "1", "--kind", "inf", "--format", "json"]
    assert run(tmp_path, *argv) == 0
    doc = json.loads((tmp_path / "cutoff_clifford_1_1.json").read_text())
    assert "r_min" not in doc["config"]
    assert doc["passed"] and 0.0 < doc["integral"] <= doc["bound"]


def test_inf_cutoff_exponent_zero_measures_gradient_support(tmp_path):
    # q = 0 integrates |grad phi|^0 = 1 over supp grad phi only, not over
    # the parts of a ball's chart box where phi == 1
    assert run(tmp_path, "cutoff", "--family", "clifford", "--k", "1", "--l", "1",
               "--points", "3", "--epsilon", "0.05", "--exponent", "0", "--kind", "inf",
               "--seed", "5", "--format", "json") == 0
    doc = json.loads((tmp_path / "cutoff_clifford_1_1.json").read_text())
    assert doc["passed"] and doc["integral"] <= doc["bound"]


def test_estimates_summary_reports_bound_margin(tmp_path, capsys):
    assert run(tmp_path, "estimates", "--family", "clifford", "--k", "1", "--l", "2") == 0
    summary = capsys.readouterr().out
    margin = float(summary.split("min bound margin ")[1].split()[0])
    assert margin > 0.0


@pytest.mark.parametrize("argv", [
    ("spectrum", "3", "--k", "0", "--resolutions", "8,12"),  # k is no equator parameter
    ("simons", "3", "--samples", "50"),
    ("estimates", "3"),
    ("cutoff", "3"),
    ("cutoff", "2"),
])
def test_equator_reports_named_by_dimension(tmp_path, argv):
    command, n, *rest = argv
    assert run(tmp_path, command, "--family", "equator", "--n", n, *rest, "--format", "json") == 0
    assert [p.name for p in tmp_path.iterdir()] == [f"{command}_equator_{n}.json"]
    doc = json.loads((tmp_path / f"{command}_equator_{n}.json").read_text())
    assert "failure" not in doc
    if command == "spectrum":
        assert {r["surface"] for r in doc["rows"]} == {f"equator_{n}"}


@pytest.mark.parametrize("surface, n", [(["clifford", "--k", "2", "--l", "1"], 3),
                                        (["clifford", "--k", "2", "--l", "2"], 4),
                                        (["equator", "--n", "3"], 3)],
                         ids=["clifford_2_1", "clifford_2_2", "equator_3"])
@pytest.mark.parametrize("format", ["json", "csv"])
def test_embedded_config_replays_to_the_same_report(tmp_path, surface, n, format):
    # a report's embedded config, fed back through --config, writes the same
    # report to the same path; its n is the surface's dimension, so a
    # clifford config with k + l != 2 is not refused as n = 2
    assert run(tmp_path / "out", "spectrum", "--family", *surface, "--resolutions", "8,10",
               "--format", format) == 0
    (report,) = (tmp_path / "out").iterdir()
    text = report.read_text()
    if format == "json":
        config = json.loads(text)["config"]
    else:
        config = json.loads(text.splitlines()[0].removeprefix("# config: "))
    assert config["n"] == n
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(config))
    report.unlink()
    assert main(["spectrum", "--config", str(replay)]) == 0
    assert report.read_text() == text


def test_inconsistent_clifford_n_rejected(tmp_path):
    assert run(tmp_path, "spectrum", "--family", "clifford", "--k", "1", "--l", "2",
               "--n", "2", "--resolutions", "16") == 2


def test_simons_cli(tmp_path):
    assert run(tmp_path, "simons", "--family", "clifford", "--k", "2", "--l", "1",
               "--format", "json", "--samples", "50") == 0
    doc = json.loads((tmp_path / "simons_clifford_2_1.json").read_text())
    assert doc["identity_residual"] <= 1e-6
    assert doc["inequality_violation"] == 0.0
