"""Mutation gate: a plausible defect must flip at least one CLI verdict.

Each mutant is applied by monkeypatch and the CLI is run in-process; the
un-mutated run of the same command line must pass, the mutated one must
not.
"""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from spherestab import geometry as geo
from spherestab import operators as ops
from spherestab.cli import main

SIMONS_21 = ["simons", "--family", "clifford", "--k", "2", "--l", "1", "--samples", "200"]
SPECTRUM_21 = ["spectrum", "--family", "clifford", "--k", "2", "--l", "1", "--resolutions", "16,20,24"]
# README's three product cutoff lines and the energy-integrals workload's one
PRODUCT_CUTOFFS = {
    name: f"cutoff --family clifford --k {k} --l {l} --points {points} --epsilon {eps} "
          "--exponent 0 --kind product".split()
    for name, k, l, points, eps in [("readme-1-point", 1, 1, 1, 0.05),
                                    ("readme-200-points", 1, 1, 200, 0.5),
                                    ("readme-n3", 1, 2, 20, 0.5),
                                    ("energy-integrals", 1, 1, 20, 0.5)]
}


def _scale_curvature_sq(monkeypatch, factor):
    """Scale the one exact kappa^2 of every sphere product by ``factor``."""
    exact = geo.SphereProduct.curvature_sq.fget
    monkeypatch.setattr(geo.SphereProduct, "curvature_sq",
                        property(lambda self: tuple(factor * q for q in exact(self))))


def test_simons_passes_unmutated(tmp_path):
    assert main(SIMONS_21 + ["--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("factor", [Fraction(121, 100), Fraction(81, 100)])
def test_curvature_mutant_flips_simons(tmp_path, monkeypatch, factor):
    # kappa x 1.1 (or x 0.9): A and |A|^2 both follow the mutated kappa, so
    # |A|^2 = 3 factor, |grad A| = 0 and the identity
    # Delta |A|^2 = 2 |grad A|^2 + 2n |A|^2 - 2 |A|^4 misses by
    # 2n |A|^2 (1 - factor), 4.57 at factor 1.21
    _scale_curvature_sq(monkeypatch, factor)
    M = geo.clifford_hypersurface((2, 1))
    assert M.product.norm_A_sq == 3 * factor
    assert main(SIMONS_21 + ["--out", str(tmp_path)]) == 1


def test_spectrum_passes_unmutated(tmp_path):
    assert main(SPECTRUM_21 + ["--out", str(tmp_path)]) == 0


def test_potential_mutant_flips_spectrum(tmp_path, monkeypatch):
    # V + 0.5 B: V is still a constant times B, so the pencil is certified,
    # and lambda_1 moves by exactly -0.5 from the analytic -2n
    original = ops.axis_pencils

    def shifted_potential(M, resolution):
        pencil = original(M, resolution)
        return dataclasses.replace(pencil, potential=pencil.potential + 0.5)

    monkeypatch.setattr(ops, "axis_pencils", shifted_potential)
    assert main(SPECTRUM_21 + ["--out", str(tmp_path)]) == 1


def test_non_nest_metric_mutant_refuses_spectrum(tmp_path, monkeypatch):
    # g_1 x (1 + 0.1 cos t_2) on clifford(2, 1): the S^2 factor's second
    # entry now varies along the S^1 axis after it, so the metric is no nest
    # of per-axis factors; the first rung is refused on the diagonal nodes
    built = geo.clifford_hypersurface

    def mutant(kl):
        M = built(kl)
        exact = M.chart.metric_diag

        def metric_diag(U):
            g = exact(U)
            g[..., 1] *= 1.0 + 0.1 * np.cos(np.asarray(U)[..., 2])
            return g

        chart = dataclasses.replace(M.chart, metric_diag=metric_diag)
        return geo.ParametrizedHypersurface(chart, M.product, M.shape_batch)

    monkeypatch.setattr(geo, "clifford_hypersurface", mutant)
    assert main(SPECTRUM_21 + ["--out", str(tmp_path), "--format", "json"]) == 3
    doc = json.loads((tmp_path / "spectrum_clifford_2_1.json").read_text())
    assert doc["failure"].startswith("AssemblyFailure: chart metric is not a nest")
    assert [r["backend"] for r in doc["rows"]] == ["analytic"]


@pytest.mark.parametrize("argv", PRODUCT_CUTOFFS.values(), ids=PRODUCT_CUTOFFS.keys())
def test_product_cutoff_passes_unmutated(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv", PRODUCT_CUTOFFS.values(), ids=PRODUCT_CUTOFFS.keys())
def test_ball_area_mutant_flips_product_cutoff(tmp_path, monkeypatch, argv):
    # ball area x 0.5 halves C_V and so every bound of the quality triple;
    # the measured area, 0.54-0.70 of its bound C_V sum r_i^n, then exceeds
    # it by more than 3 stderr
    exact = geo.SphereProduct.ball_area
    monkeypatch.setattr(geo.SphereProduct, "ball_area", lambda self, level: 0.5 * exact(self, level))
    assert main(argv + ["--out", str(tmp_path)]) == 1
