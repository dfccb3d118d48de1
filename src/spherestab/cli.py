"""Command-line entry point: reproducible experiments with file reports.

Subcommands
-----------
spectrum    analytic + numeric first stability eigenvalues over a resolution
            ladder, with residuals and the observed convergence order
simons      curvature-identity residuals with a step-refinement ladder
cutoff      synthetic singular set -> ball cover -> cutoff field -> measured
            gradient integral (inf kind) or quality triple (product kind)
estimates   local curvature-energy bounds plus the L^4 identity
cone-table  cone stability verdicts for links of dimension 1..n_max

Every run is deterministic for a fixed seed and writes a self-describing
report (the config is embedded) as CSV or JSON.  Config values may come
from flags or from a JSON config file; flags override the file.  The
default output directory is $SPHERESTAB_OUTDIR, falling back to the
current directory.

``--family`` names an entry of ``FAMILIES``, which builds the run's surface
once through its ``geometry`` constructor: ``equator`` reads ``--n``;
``clifford`` reads ``--k`` and ``--l``, and an ``--n`` given with them must
equal the surface's dimension k + l.  The constructors hold the parameter
rules; a parameter they refuse is a configuration error.  Reports are named
after the surface's family and factor dimensions (``clifford_2_1``,
``equator_4``).

Exit codes: 0 all asserted bounds pass, 1 a bound failed (its report is
still written), 2 configuration error, 3 numerical failure (infeasible
budget, insufficient samples, a stability pencil that fails its
certificate, a ``spectrum`` rung out of memory; the report is still
written, with a ``failure`` field naming the cause, and a failing
``spectrum`` rung keeps the rows of the rungs before it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field

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


@dataclass
class RunConfig:
    command: str
    family: str = next(iter(FAMILIES))
    k: int = 1
    l: int = 1
    n: int = 2
    resolutions: list[int] = field(default_factory=lambda: [32, 64, 128])
    epsilon: float = 0.05
    exponent: float = 1.0
    kind: str = "inf"
    points: int = 1
    singular_set: str = ""
    n_max: int = 10
    radii: list[float] = field(default_factory=lambda: [0.1, 0.25, 0.5, 1.0])
    samples: int = 200
    seed: int = 0
    out: str = "."
    format: str = "csv"

    def validate(self):
        if any(r < 8 for r in self.resolutions):
            raise ConfigError("resolutions must be >= 8")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.kind not in ("inf", "product"):
            raise ConfigError("kind must be 'inf' or 'product'")
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be 'csv' or 'json'")
        return self

    def surface(self):
        build = FAMILIES.get(self.family)
        if build is None:
            raise ConfigError(f"unknown family {self.family!r}")
        try:
            return build(self)
        except ValueError as exc:
            raise ConfigError(f"{self.family}: {exc}") from None


def _tag(M):
    """Report name of a built-in surface: family and factor dimensions, e.g. clifford_2_1."""
    return "_".join([M.family, *map(str, M.params)])


def _build_config(args):
    """(config, surface) from a config file and flags; flags override the file."""
    values = {}
    fields = RunConfig.__dataclass_fields__
    if getattr(args, "config", None):
        with open(args.config) as fh:
            values.update(json.load(fh))
        for key, val in values.items():
            if key in fields and not _has_type(val, fields[key].type):
                raise ConfigError(f"{key} = {val!r} in {args.config} is not {fields[key].type}")
    for key, val in vars(args).items():
        if key in ("config", "func") or val is None:
            continue
        values[key] = val
    values.setdefault("out", os.environ.get(OUTDIR_ENV, "."))
    unknown = set(values) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    config = RunConfig(**values).validate()
    M = config.surface()
    if "n" in values and values["n"] != M.dimension:
        raise ConfigError(f"n = {values['n']}, but {_tag(M)} has dimension {M.dimension}")
    return config, M


def _has_type(value, kind):
    """Whether a JSON value fits a ``RunConfig`` annotation: int, float, str, list[int] or list[float]."""
    if kind.startswith("list["):
        return isinstance(value, list) and all(_has_type(v, kind[5:-1]) for v in value)
    # JSON true and false load as bool, a subclass of int
    types = {"int": int, "float": (int, float), "str": str}[kind]
    return isinstance(value, types) and not isinstance(value, bool)


def _write_report(config: RunConfig, M, payload: dict, rows=None, columns=None) -> str:
    os.makedirs(config.out, exist_ok=True)
    stem = config.command if config.command == "cone-table" else f"{config.command}_{_tag(M)}"
    path = os.path.join(config.out, f"{stem}.{config.format}")
    doc = {"config": asdict(config), **payload}
    if config.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True, default=_jsonable) + "\n"
    else:
        lines = ["# config: " + json.dumps(asdict(config), sort_keys=True)]
        if rows is not None:
            lines.append(",".join(columns))
            for row in rows:
                lines.append(",".join(_csv_cell(row.get(c)) for c in columns))
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
    columns = ["surface", "backend", "resolution", "lambda1", "residual", "abs_err"]
    failure = None
    for res in config.resolutions:
        try:
            result = spec.first_stability_eigenvalue(ops.assemble_jacobi(M, res))
        except (MemoryError, SpherestabError) as exc:
            failure = (f"MemoryError: out of memory at resolution {res}"
                       if isinstance(exc, MemoryError) else f"{type(exc).__name__}: {exc}")
            break
        row = result.record(_tag(M), res)
        row["abs_err"] = abs(result.lambda1 - analytic.lambda1)
        errors.append(row["abs_err"])
        rows.append(row)
    if failure is not None:
        # the rows computed before the failing rung are kept
        payload = {"rows": rows, "analytic_lambda1": analytic.lambda1, "failure": failure}
        path = _write_report(config, M, payload, rows, columns)
        print(f"numerical failure: {failure} -> {path}", file=sys.stderr)
        return 3
    order = spec.observed_order(errors) if len(errors) >= 2 else float("inf")
    payload = {
        "rows": rows,
        "analytic_lambda1": analytic.lambda1,
        "observed_order": order if np.isfinite(order) else "inf",
    }
    path = _write_report(config, M, payload, rows, columns)
    ok = errors[-1] <= 1e-6 and all(r["residual"] <= 1e-8 for r in rows[1:]) and order >= 2
    print(f"spectrum {_tag(M)}: lambda1 = {rows[-1]['lambda1']:.9f} "
          f"(analytic {analytic.lambda1}), err {errors[-1]:.2e}, order {order} -> {path}")
    return 0 if ok else 1


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
    path = _write_report(config, M, payload)
    ok = (
        report.max_identity_residual <= 1e-6
        and report.max_inequality_violation == 0.0
        and order >= 2
    )
    print(f"simons {_tag(M)}: residual {report.max_identity_residual:.2e}, "
          f"violation {report.max_inequality_violation}, order {order} -> {path}")
    return 0 if ok else 1


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
        if pts.size and pts.shape[1] != n + 2:
            raise ConfigError(
                f"singular-set points need {n + 2} coordinates, got {pts.shape[1]}"
            )
        if not np.all(np.isfinite(pts)):
            raise ConfigError("singular-set points must have finite coordinates")
        if pts.size and np.any(np.abs(np.linalg.norm(pts, axis=1) - 1.0) > 1e-9):
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
        fld = cut.build_inf_cutoff(cover)
        report = cut.gradient_integral_estimate(M, cover, fld, config.exponent, seed=config.seed)
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
        ok = report.passed
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
        ok = report.passed
    path = _write_report(config, M, payload)
    print(f"cutoff {_tag(M)} kind={config.kind}: "
          + ", ".join(f"{k}={v:.4g}" for k, v in payload.items() if isinstance(v, float))
          + f" -> {path}")
    return 0 if ok else 1


def _run_estimates(config: RunConfig, M):
    lam1 = _analytic_eigenvalue(M).lambda1
    c_v = geo.measure_volume_growth(M)
    _, centers = geo.sample_points(M, max(config.points, 1), seed=config.seed)
    bounds = []
    for r in config.radii:
        ball = est.geodesic_ball_area(M, r)  # the same at every centre of these families
        bounds += [est.local_A_bound(M, c, r, lam1, C_V=c_v, ball_area=ball) for c in centers]
    # the l4 identity holds with equality, so its margin is 0 by construction
    # and stays out of the summary's minimum
    reports = bounds + [est.l4_identity_check(M)]
    rows = [rep.row() for rep in reports]
    payload = {"rows": rows, "lambda1": lam1, "C_V": c_v}
    path = _write_report(config, M, payload, rows, ["name", "n", "lhs", "rhs", "margin", "stderr"])
    ok = all(rep.passed for rep in reports)
    margin = min((rep.margin for rep in bounds), default=float("inf"))
    print(f"estimates {_tag(M)}: {len(reports)} reports, "
          f"min bound margin {margin:.3g} -> {path}")
    return 0 if ok else 1


def _run_cone_table(config: RunConfig, M):
    table = est.cone_stability_table(config.n_max)
    rows = [
        {
            "n": v.n,
            "link_bound": v.link_bound,
            "threshold": v.threshold,
            "stable_possible": v.stable_possible,
            "margin": v.margin,
        }
        for v in table
    ]
    payload = {"rows": rows}
    path = _write_report(
        config, M, payload, rows, ["n", "link_bound", "threshold", "stable_possible", "margin"]
    )
    ok = all(v.stable_possible == (v.n >= 6) for v in table)
    first_true = next((v.n for v in table if v.stable_possible), None)
    print(f"cone-table: first stable-possible link dimension {first_true} -> {path}")
    return 0 if ok else 1


_COMMANDS = {
    "spectrum": _run_spectrum,
    "simons": _run_simons,
    "cutoff": _run_cutoff,
    "estimates": _run_estimates,
    "cone-table": _run_cone_table,
}


def _int_list(text):
    return [int(v) for v in text.split(",") if v]


def _float_list(text):
    return [float(v) for v in text.split(",") if v]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spherestab",
        description="stability spectra and cutoff estimates for minimal hypersurfaces of the sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, surface=True):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help=f"output directory (default ${OUTDIR_ENV} or .)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        if surface:
            p.add_argument("--family", choices=FAMILIES, default=None)
            p.add_argument("--k", type=int, default=None)
            p.add_argument("--l", type=int, default=None)
            p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("spectrum", help="first stability eigenvalue, analytic and numeric")
    common(p)
    p.add_argument("--resolutions", type=_int_list, default=None)

    p = sub.add_parser("simons", help="curvature identity residuals")
    common(p)
    p.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("cutoff", help="cover a synthetic singular set and measure the cutoff")
    common(p)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--singular-set", dest="singular_set", default=None,
                   help="plain-text point cloud (one point per line) instead of sampled points")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--exponent", type=float, default=None, help="budget/integrand exponent q")
    p.add_argument("--kind", choices=("inf", "product"), default=None)

    p = sub.add_parser("estimates", help="local curvature-energy bounds and the L4 identity")
    common(p)
    p.add_argument("--radii", type=_float_list, default=None)
    p.add_argument("--points", type=int, default=None, help="number of ball centers")

    p = sub.add_parser("cone-table", help="cone stability verdicts for n = 1..n_max")
    common(p, surface=False)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, M = _build_config(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[config.command](config, M)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpherestabError as exc:
        failure = f"{type(exc).__name__}: {exc}"
        path = _write_report(config, M, {"failure": failure})
        print(f"numerical failure: {failure} -> {path}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
