"""Mutation gate: a plausible defect must flip at least one CLI verdict.

Each mutant is applied by monkeypatch and the CLI is run in-process; the
un-mutated run of the same command line must pass, the mutated one must
not.
"""

import dataclasses
from fractions import Fraction

import pytest

from spherestab import geometry as geo
from spherestab import operators as ops
from spherestab.cli import main

SIMONS_21 = ["simons", "--family", "clifford", "--k", "2", "--l", "1", "--samples", "200"]
SPECTRUM_21 = ["spectrum", "--family", "clifford", "--k", "2", "--l", "1", "--resolutions", "16,20,24"]


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
    # V + 0.5 B: V / B is still constant, so the pencil is certified, and
    # lambda_1 moves by exactly -0.5 from the analytic -2n
    original = ops.assemble_jacobi

    def shifted_potential(M, resolution):
        op = original(M, resolution)
        return dataclasses.replace(op, node_potential=op.node_potential + 0.5 * op.node_mass)

    monkeypatch.setattr(ops, "assemble_jacobi", shifted_potential)
    assert main(SPECTRUM_21 + ["--out", str(tmp_path)]) == 1
