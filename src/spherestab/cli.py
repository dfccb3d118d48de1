"""Command-line entry point: reproducible experiments with file reports.

The subcommands are the entries of ``COMMANDS`` (``spherestab --help``
lists them).  Every run is deterministic for a fixed seed and writes a
self-describing report (the config is embedded) as CSV or JSON.  Config
values may come from flags or from a JSON config file; flags override the
file.  The default output directory is $SPHERESTAB_OUTDIR, falling back to
the current directory.

Each option is declared once, as a ``RunConfig`` field with its help,
choices and range; the parser and ``validate`` read it, and a value of the
wrong type or out of range, from a flag or a file, is a configuration
error.  Adding a subcommand is one ``COMMANDS`` entry (runner, help line,
own options) plus a runner that returns a ``Result``: ``main`` alone
writes the report, prints the summary and picks the exit code.  The parser
is built on the first ``main`` call and reused by every later call in the
process, so ``OPTIONS`` and ``COMMANDS`` are read into it once, at the
first parse; ``main`` still looks each runner up in ``COMMANDS`` per call.

``--family`` names an entry of ``FAMILIES``, which builds the run's surface
once through its ``geometry`` constructor: ``equator`` reads ``--n``;
``clifford`` reads ``--k`` and ``--l``, and an ``--n`` given with them must
equal the surface's dimension k + l.  The constructors hold the parameter
rules; a parameter they refuse is a configuration error.  Reports are named
after the surface's family and factor dimensions (``clifford_2_1``,
``equator_4``).

Exit codes: 0 all asserted bounds pass, 1 a bound failed (its report is
still written), 2 configuration error (no report), 3 numerical failure
(infeasible budget, insufficient samples, a stability pencil that fails its
certificate, a ``spectrum`` rung out of memory; the report is still
written, with a ``failure`` field naming the cause, and a failing
``spectrum`` rung keeps the rows of the rungs before it).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import estimates as est
from . import cutoff as cut
from . import geometry as geo
from . import operators as ops
from . import spectrum as spec
from .errors import SpherestabError

OUTDIR_ENV = "SPHERESTAB_OUTDIR"


class ConfigError(Exception):
    pass


# --family name -> the built-in surface of a config; the constructor checks
# the parameters.  The first entry is the default family.
FAMILIES = {
    "clifford": lambda c: geo.clifford_hypersurface((c.k, c.l)),
    "equator": lambda c: geo.equator(c.n),
}


def _option(default, help, choices=None, check=None, text=None):
    """A CLI option: ``check`` is true on its range (false on NaN), which ``text`` states."""
    kind = {"default_factory": lambda: list(default)} if isinstance(default, list) else {"default": default}
    meta = {"help": help, "choices": choices, "check": check, "text": text}
    return field(**kind, metadata=meta)


@dataclass
class RunConfig:
    command: str
    family: str = _option(next(iter(FAMILIES)), "built-in surface family", tuple(FAMILIES))
    k: int = _option(1, "first clifford factor dimension")
    l: int = _option(1, "second clifford factor dimension")
    n: int = _option(2, "surface dimension")
    resolutions: list[int] = _option([32, 64, 128], "comma-separated grid resolutions",
                                     check=lambda v: v and min(v) >= 8, text="at least one, each >= 8")
    epsilon: float = _option(0.05, "cover budget", check=lambda v: 0 < v < math.inf,
                             text="finite and > 0")
    exponent: float = _option(1.0, "budget/integrand exponent q", check=math.isfinite, text="finite")
    kind: str = _option("inf", "cutoff construction", ("inf", "product"))
    points: int = _option(1, "sampled singular-set points (cutoff) or ball centres (estimates)",
                          check=lambda v: v >= 1, text=">= 1")
    singular_set: str = _option("", "plain-text point cloud (one point per line) instead of sampled points")
    n_max: int = _option(10, "largest link dimension", check=lambda v: v >= 1, text=">= 1")
    radii: list[float] = _option([0.1, 0.25, 0.5, 1.0], "comma-separated ball radii",
                                 check=lambda v: v and all(0 < r < 2 for r in v),
                                 text="at least one, each in (0, 2)")
    samples: int = _option(200, "Monte-Carlo samples", check=lambda v: v >= 1, text=">= 1")
    seed: int = _option(0, "random seed", check=lambda v: v >= 0, text=">= 0")
    out: str = _option(".", f"output directory (default ${OUTDIR_ENV} or .)")
    format: str = _option("csv", "report format", ("csv", "json"))

    def validate(self):
        """Refuse an option value of the wrong type, outside its choices or out of range."""
        for name, f in OPTIONS.items():
            value, meta = getattr(self, name), f.metadata
            if not _fits(value, f.type):
                raise ConfigError(f"{name} = {value!r} is not {f.type}")
            if meta["choices"] and value not in meta["choices"]:
                raise ConfigError(f"{name} = {value!r} is not one of {', '.join(meta['choices'])}")
            if meta["check"] and not meta["check"](value):
                raise ConfigError(f"{name} = {value!r} is out of range: {meta['text']}")
        return self

    def surface(self):
        try:
            return FAMILIES[self.family](self)
        except ValueError as exc:
            raise ConfigError(f"{self.family}: {exc}") from None


OPTIONS = {f.name: f for f in fields(RunConfig) if f.metadata}

# an option's type -> (converter of its flag text, JSON types of a config
# value); a list option is a comma-separated list of its item type
_SCALARS = {"int": (int, int), "float": (float, (int, float)), "str": (str, str)}


def _fits(value, kind):
    """Whether a value fits an option's type; JSON true and false load as bool and fit none."""
    if kind.startswith("list["):
        return isinstance(value, list) and all(_fits(v, kind[5:-1]) for v in value)
    return isinstance(value, _SCALARS[kind][1]) and not isinstance(value, bool)


def _converter(kind):
    if not kind.startswith("list["):
        return _SCALARS[kind][0]
    item = _SCALARS[kind[5:-1]][0]

    def convert(text):
        return [item(v) for v in text.split(",") if v]

    convert.__name__ = kind  # argparse names it in "invalid list[int] value"
    return convert


def _tag(M):
    """Report name of a built-in surface: family and factor dimensions, e.g. clifford_2_1."""
    return "_".join([M.family, *map(str, M.params)])


def _build_config(args):
    """(config, surface) from a config file and flags; flags override the file."""
    values = {}
    if args.config:
        with open(args.config) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ConfigError(f"{args.config} does not hold a JSON object")
    values.update((key, val) for key, val in vars(args).items() if key != "config" and val is not None)
    values.setdefault("out", os.environ.get(OUTDIR_ENV, "."))
    unknown = set(values) - set(OPTIONS) - {"command"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    config = RunConfig(**values).validate()
    M = config.surface()
    if "n" in values and values["n"] != M.dimension:
        raise ConfigError(f"n = {values['n']}, but {_tag(M)} has dimension {M.dimension}")
    return config, M


@dataclass
class Result:
    """A runner's report payload (``payload["failure"]`` names a numerical
    failure), verdict, summary line and the CSV columns of ``payload["rows"]``."""
    payload: dict
    summary: str = ""
    passed: bool = True
    columns: list[str] | None = None


def _write_report(config: RunConfig, M, result: Result) -> str:
    os.makedirs(config.out, exist_ok=True)
    stem = config.command if config.command == "cone-table" else f"{config.command}_{_tag(M)}"
    path = os.path.join(config.out, f"{stem}.{config.format}")
    payload, embedded = result.payload, asdict(config)
    if config.format == "json":
        text = json.dumps({"config": embedded, **payload}, indent=2, sort_keys=True,
                          default=_jsonable) + "\n"
    else:
        lines = ["# config: " + json.dumps(embedded, sort_keys=True)]
        if result.columns is not None:
            lines.append(",".join(result.columns))
            for row in payload["rows"]:
                lines.append(",".join(_csv_cell(row.get(c)) for c in result.columns))
            if "failure" in payload:
                lines.append("# failure: " + payload["failure"])
        else:
            lines.append(json.dumps(payload, sort_keys=True, default=_jsonable))
        text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _jsonable(v):
    if isinstance(v, np.generic):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_spectrum(config: RunConfig, M):
    analytic = _analytic_eigenvalue(M)
    rows = [analytic.record(_tag(M))]
    rows[-1]["abs_err"] = 0.0
    errors = []
    result = Result({"rows": rows, "analytic_lambda1": analytic.lambda1},
                    columns=["surface", "backend", "resolution", "lambda1", "residual", "abs_err"])
    for res in config.resolutions:
        try:
            rung = spec.first_stability_eigenvalue(ops.assemble_jacobi(M, res))
        except (MemoryError, SpherestabError) as exc:
            # the rows computed before the failing rung are kept
            result.payload["failure"] = (f"MemoryError: out of memory at resolution {res}"
                                         if isinstance(exc, MemoryError) else _failure(exc))
            return result
        row = rung.record(_tag(M), res)
        row["abs_err"] = abs(rung.lambda1 - analytic.lambda1)
        errors.append(row["abs_err"])
        rows.append(row)
    order = spec.observed_order(errors) if len(errors) >= 2 else float("inf")
    result.payload["observed_order"] = order if np.isfinite(order) else "inf"
    result.passed = errors[-1] <= 1e-6 and all(r["residual"] <= 1e-8 for r in rows[1:]) and order >= 2
    result.summary = (f"spectrum {_tag(M)}: lambda1 = {rows[-1]['lambda1']:.9f} "
                      f"(analytic {analytic.lambda1}), err {errors[-1]:.2e}, order {order}")
    return result


def _failure(exc):
    return f"{type(exc).__name__}: {exc}"


def _analytic_eigenvalue(M):
    """Exact lambda_1 of a built-in family from its analytic spectrum."""
    return spec.first_stability_eigenvalue(ops.analytic_laplace_spectrum(M))


def _run_simons(config: RunConfig, M):
    report = spec.simons_check(M, samples=config.samples, seed=config.seed)
    steps = (0.08, 0.04, 0.02)
    ladder = spec.simons_refinement(M, steps=steps, samples=min(config.samples, 100), seed=config.seed)
    order = spec.observed_order(ladder)
    payload = {
        "identity_residual": report.max_identity_residual,
        "inequality_violation": report.max_inequality_violation,
        "samples": report.sample_count,
        "steps": list(steps),
        "step_residuals": ladder,
        "observed_order": order if np.isfinite(order) else "inf",
    }
    passed = (
        report.max_identity_residual <= 1e-6
        and report.max_inequality_violation == 0.0
        and order >= 2
    )
    return Result(payload, f"simons {_tag(M)}: residual {report.max_identity_residual:.2e}, "
                           f"violation {report.max_inequality_violation}, order {order}", passed)


def _radius_floor(count, n, q, epsilon):
    """Smallest cover radius: 1e-3 unless ``count`` balls of it spend the budget.

    ``count * r_min^(n-q) < epsilon`` is needed for a cover of ``count``
    points; when 1e-3 misses it, the floor drops to half the uniform share
    ``(epsilon / count)^(1/(n-q))``, which meets it.
    """
    if q >= n or count * 1e-3 ** (n - q) < epsilon:
        return 1e-3
    return 0.5 * (epsilon / count) ** (1.0 / (n - q))


def _run_cutoff(config: RunConfig, M):
    n = M.dimension
    if config.singular_set:
        try:
            pts = cut.load_point_cloud(config.singular_set)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"singular set {config.singular_set}: {exc}") from None
        if not pts.size:
            raise ConfigError(f"singular set {config.singular_set} holds no points")
        if pts.shape[1] != n + 2:
            raise ConfigError(f"singular-set points need {n + 2} coordinates, got {pts.shape[1]}")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("singular-set points must have finite coordinates")
        if np.any(np.abs(np.linalg.norm(pts, axis=1) - 1.0) > 1e-9):
            raise ConfigError("singular-set points must lie on the unit sphere (|x| = 1 within 1e-9)")
    else:
        _, pts = geo.sample_points(M, config.points, seed=config.seed, pad=0.05)
    metric = "geodesic" if config.kind == "inf" else "euclidean"
    cover = cut.cover_singular_set(
        pts, n, config.exponent, config.epsilon,
        r_min=_radius_floor(len(pts), n, config.exponent, config.epsilon), metric=metric,
        containment="full" if config.kind == "inf" else "sixth",
    )
    if config.kind == "inf":
        report = cut.gradient_integral_estimate(M, cut.build_inf_cutoff(cover), seed=config.seed)
        payload = {
            "integral": report.integral,
            "stderr": report.stderr,
            "bound": report.bound,
            "epsilon": report.epsilon,
            "C_V": report.c_v,
            "q": report.q,
            "n": report.dimension,
            "radii": list(cover.radii),
            "passed": report.passed,
        }
    else:
        fld = cut.build_product_cutoff(cover)
        report = cut.mr_quality_report(M, fld, seed=config.seed)
        payload = {
            "area_not_one": report.area_not_one.value,
            "grad_l2": report.grad_l2.value,
            "lap_l1": report.lap_l1.value,
            "stderrs": [report.area_not_one.stderr, report.grad_l2.stderr, report.lap_l1.stderr],
            "bounds": list(report.bounds),
            "C_V": report.c_v,
            "C0": report.c0,
            "C1": report.c1,
            "passed": report.passed,
        }
    summary = (f"cutoff {_tag(M)} kind={config.kind}: "
               + ", ".join(f"{k}={v:.4g}" for k, v in payload.items() if isinstance(v, float)))
    return Result(payload, summary, report.passed)


def _run_estimates(config: RunConfig, M):
    lam1 = _analytic_eigenvalue(M).lambda1
    c_v = geo.measure_volume_growth(M)
    _, centers = geo.sample_points(M, config.points, seed=config.seed)
    bounds = [rep for r in config.radii for rep in est.local_A_bound(M, centers, r, lam1, C_V=c_v)]
    # the l4 identity holds with equality, so its margin is 0 by construction
    # and stays out of the summary's minimum
    reports = bounds + [est.l4_identity_check(M)]
    margin = min(rep.margin for rep in bounds)
    return Result({"rows": [rep.row() for rep in reports], "lambda1": lam1, "C_V": c_v},
                  f"estimates {_tag(M)}: {len(reports)} reports, min bound margin {margin:.3g}",
                  all(rep.passed for rep in reports),
                  ["name", "n", "lhs", "rhs", "margin", "stderr"])


def _run_cone_table(config: RunConfig, M):
    table = est.cone_stability_table(config.n_max)
    columns = ["n", "link_bound", "threshold", "stable_possible", "margin"]
    rows = [{c: getattr(v, c) for c in columns} for v in table]
    first_true = next((v.n for v in table if v.stable_possible), None)
    return Result({"rows": rows}, f"cone-table: first stable-possible link dimension {first_true}",
                  all(v.stable_possible == (v.n >= 6) for v in table), columns)


@dataclass(frozen=True)
class Command:
    run: Callable[[RunConfig, object], Result]
    help: str
    options: tuple[str, ...]
    surface: bool = True  # also reads --family, --k, --l and --n


_COMMON = ("seed", "out", "format")
_SURFACE = ("family", "k", "l", "n")

COMMANDS = {
    "spectrum": Command(_run_spectrum, "analytic and numeric first stability eigenvalues over a "
                        "resolution ladder, with residuals and the observed order", ("resolutions",)),
    "simons": Command(_run_simons, "curvature-identity residuals with a step-refinement ladder",
                      ("samples",)),
    "cutoff": Command(_run_cutoff, "synthetic singular set -> ball cover -> cutoff field -> "
                      "gradient integral (inf kind) or quality triple (product kind)",
                      ("points", "singular_set", "epsilon", "exponent", "kind")),
    "estimates": Command(_run_estimates, "local curvature-energy bounds plus the L^4 identity",
                         ("radii", "points")),
    "cone-table": Command(_run_cone_table, "cone stability verdicts for links of dimension "
                          "1..n_max", ("n_max",), surface=False),
}


def _add_options(parser, names):
    for name in names:
        f = OPTIONS[name]
        meta = f.metadata
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=_converter(f.type),
                            choices=meta["choices"], default=None,
                            help="; ".join(filter(None, (meta["help"], meta["text"]))))
    return parser


@functools.cache
def build_parser():
    """The CLI parser, built at the first call and shared, unchanged, by every later one."""
    parser = argparse.ArgumentParser(
        prog="spherestab",
        description="stability spectra and cutoff estimates for minimal hypersurfaces of the sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    _add_options(common, _COMMON)
    surface = _add_options(argparse.ArgumentParser(add_help=False), _SURFACE)
    for name, command in COMMANDS.items():
        parents = [common, surface] if command.surface else [common]
        _add_options(sub.add_parser(name, help=command.help, parents=parents), command.options)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config, M = _build_config(args)
        try:
            result = COMMANDS[config.command].run(config, M)
        except SpherestabError as exc:
            result = Result({"failure": _failure(exc)})
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    path = _write_report(config, M, result)
    if "failure" in result.payload:
        print(f"numerical failure: {result.payload['failure']} -> {path}", file=sys.stderr)
        return 3
    print(f"{result.summary} -> {path}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
