"""Stability eigenvalues, Rayleigh quotients and the curvature identity."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from spherestab import cli
from spherestab import fields
from spherestab import geometry as geo
from spherestab import operators as ops
from spherestab import spectrum as spec
from spherestab.errors import AssemblyFailure, NonMinimal, ZeroTestFunction
from spherestab.fields import AmbientCoordinateField, ConstantField

import oracles
from oracles import assemble_jacobi


# ---------------------------------------------------------------------------
# first stability eigenvalue
# ---------------------------------------------------------------------------

def _exact_lambda1(M):
    """The bottom of the exact -Delta spectrum (the constants' 0) minus the potential."""
    lam = float(M.product.laplace_eigenvalues(1)[0]) - float(M.potential)
    assert lam == -float(M.potential)
    return lam


def test_equator_lambda1_analytic_exact():
    for n in range(1, 7):
        M = geo.equator(n)
        assert _exact_lambda1(M) == -float(n)
        res = cli._analytic_eigenvalue(M)  # the analytic row of a spectrum report
        assert res.lambda1 == -float(n)
        assert res.residual == 0.0
        assert res.backend == "analytic"


def test_torus_lambda1_analytic_exact(torus):
    assert _exact_lambda1(torus) == -4.0


def test_clifford22_lambda1_analytic():
    M = geo.clifford_hypersurface((2, 2))
    assert _exact_lambda1(M) == -8.0


def test_torus_lambda1_numeric(torus):
    res = spec.first_stability_eigenvalue(torus, 64)
    assert res.backend == "numeric" and res.converged
    assert abs(res.lambda1 + 4.0) <= 1e-6
    assert res.residual <= 1e-8
    x = res.eigenvector
    assert (x.max() - x.min()) / np.abs(x).max() <= 1e-6  # constant first eigenfunction
    assert x[0] > 0  # sign normalization


def test_equator2_lambda1_numeric(equator2):
    res = spec.first_stability_eigenvalue(equator2, 64)
    assert abs(res.lambda1 + 2.0) <= 1e-6
    assert res.residual <= 1e-8


def test_theorem_bound_all_families(clifford_families):
    # every non-totally-geodesic built-in family: lambda_1 <= -2n
    for (k, l), M in clifford_families.items():
        n = k + l
        assert _exact_lambda1(M) <= -2.0 * n + 1e-12


# per-axis resolutions, so the split res[:k], res[k:] is exercised too; the
# whole-pencil oracle solve of clifford(2, 2) costs 8.6 s at 10^4 nodes
FACTORED_GRIDS = [
    ((1, 1), 8), ((1, 1), 12), ((1, 1), [10, 12]),
    ((1, 2), 8), ((1, 2), 12), ((1, 2), [12, 8, 10]),
    ((2, 1), 8), ((2, 1), 12), ((2, 1), [8, 10, 12]),
    ((2, 2), 8), ((2, 2), [8, 9, 10, 8]),
]
# a one-tuple (d,) stands for equator(d)
EQUATOR_GRIDS = [((2,), 8), ((2,), 16), ((2,), [12, 16]), ((3,), 8), ((3,), [8, 10, 12])]


def surface(kl):
    return geo.clifford_hypersurface(kl) if len(kl) == 2 else geo.equator(*kl)


def sphere_factor(d, r, res):
    """Pencil of S^d(r): the unit-sphere assembly, stiffness by r^(d-2), mass by r^d."""
    unit = assemble_jacobi(geo.equator(d), res)
    return unit.stiffness * r ** (d - 2), unit.mass * r**d


@pytest.mark.parametrize("kl, res", FACTORED_GRIDS)
def test_assembled_pencil_is_kronecker_sum_of_factors(kl, res):
    op = assemble_jacobi(geo.clifford_hypersurface(kl), res)
    k, l = kl
    rk, rl = geo.clifford_hypersurface(kl).product.radii
    (S_k, B_k), (S_l, B_l) = sphere_factor(k, rk, op.shape[:k]), sphere_factor(l, rl, op.shape[k:])
    assert S_k.shape[0] * S_l.shape[0] == op.size
    S = sp.kron(S_k, B_l) + sp.kron(B_k, S_l)
    B = sp.kron(B_k, B_l)
    assert abs(S - op.stiffness).max() <= 1e-14 * abs(op.stiffness).max()
    assert abs(B - op.mass).max() <= 1e-14 * abs(op.mass).max()
    assert abs(op.potential - 2.0 * (k + l) * op.mass).max() == 0.0


@pytest.mark.parametrize("kl, res", FACTORED_GRIDS + EQUATOR_GRIDS)
def test_factorized_lambda1_matches_whole_pencil_solve(kl, res):
    # the certified lambda_1 against the oracle: shift-invert Lanczos on the
    # assembled CSR pencil, sigma = -(2n + 1), from the all-ones start vector
    # (eigsh raises if it does not converge)
    M = surface(kl)
    op = assemble_jacobi(M, res)
    oracle = eigsh(
        (op.stiffness - op.potential).tocsc(), k=1, M=op.mass, sigma=-(2.0 * M.dimension + 1.0),
        which="LM", v0=np.ones(op.size), tol=1e-10, maxiter=10_000,
    )[0][0]
    result = spec.first_stability_eigenvalue(M, res)
    assert result.converged
    assert abs(result.lambda1 - oracle) <= 1e-12
    assert result.residual <= 1e-12


def _set_entry(name, axis, new):
    """Replace entry 3 of axis ``axis``'s array ``name`` of the nest by ``new`` of it."""
    def corrupt(pencil):
        parts = [p.copy() for p in getattr(pencil, name)]
        parts[axis][3] = new(parts[axis][3])
        return dataclasses.replace(pencil, **{name: tuple(parts)})
    return corrupt


def _potential_entry(pencil):
    # the one entry c of V = c B
    return dataclasses.replace(pencil, potential=float("nan"))


@pytest.mark.parametrize("corrupt", [
    _set_entry("weights", 0, lambda w: -w),       # a positive off-diagonal in S
    _potential_entry,                             # a potential that is not finite
    _set_entry("masses", 1, lambda m: 0.0 * m),   # one zero mass entry
    _set_entry("weights", 1, lambda w: np.nan),   # one NaN edge weight
    _set_entry("links", 0, lambda l: -l),         # a negative link coefficient
], ids=["negative-weight", "potential-entry", "zero-mass", "nan-weight", "negative-link"])
def test_certificate_refuses_corrupted_pencil(corrupt, monkeypatch):
    # each corruption of the nest breaks one hypothesis of the certificate;
    # the pencil is then refused, and nothing is solved
    M = geo.clifford_hypersurface((2, 1))
    original = ops.axis_pencils
    assert spec.first_stability_eigenvalue(M, 8).lambda1 == -6.0
    monkeypatch.setattr(ops, "axis_pencils", lambda M, res: corrupt(original(M, res)))
    with pytest.raises(AssemblyFailure, match="stability pencil fails the certificate"):
        spec.first_stability_eigenvalue(M, 8)


@pytest.mark.parametrize("M", [geo.clifford_hypersurface((1, 1)), geo.clifford_hypersurface((2, 1)),
                               geo.clifford_hypersurface((2, 2)), geo.equator(3)],
                         ids=["torus", "clifford21", "clifford22", "equator3"])
def test_apply_matches_csr_pencil(M):
    # the matrix-free fluxes against the CSR views, on uneven grids
    op = assemble_jacobi(M, [9, 12, 10, 8][: M.dimension])
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.normal(size=op.size)
        ref = (op.stiffness - op.potential) @ x
        assert np.linalg.norm(oracles.apply_pencil(op, x) - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("n, res", [(2, 512), (3, 48)])
def test_certificate_holds_on_fine_equator_grids(n, res, monkeypatch):
    # fine polar grids: the pole rows have masses ~ h^n, which the
    # certificate takes as they are, and no n-D node array is built
    def refuse(*args):
        raise AssertionError("the certified pencil built the grid's nodes")

    monkeypatch.setattr(geo, "_tensor_grid", refuse)
    result = spec.first_stability_eigenvalue(geo.equator(n), res)
    assert abs(result.lambda1 + n) <= 1e-12
    assert result.residual <= 1e-14


@pytest.mark.parametrize("kl, res", [((3, 3), 8), ((2, 2), 16)])
def test_factorized_reach(kl, res):
    # n = 6 (262k nodes) and n = 4 at 16^4 are out of reach of the
    # whole-pencil solve; the certificate gives lambda_1 = -2n exactly
    n = kl[0] + kl[1]
    result = spec.first_stability_eigenvalue(geo.clifford_hypersurface(kl), res)
    assert result.converged
    assert abs(result.lambda1 + 2.0 * n) <= 1e-6
    assert result.residual <= 1e-8


OPEN_GRID_CASES = [
    *[(kl, res) for kl in [(1, 1), (2, 1), (1, 2), (2,), (3,)] for res in (8, 16, 24)],
    ((2, 2), 8), ((2, 2), 16), ((4,), 8), ((4,), 16), ((2, 1), [8, 12, 10]),
]


@pytest.mark.parametrize("kl, res", OPEN_GRID_CASES)
def test_certified_values_match_full_grid_oracle(kl, res):
    # the certified branch reads lambda_1, the eigenvector and the residual
    # off the per-axis nest; the full-grid apply-based values are the oracle
    op = assemble_jacobi(surface(kl), res)
    ones = np.ones(op.size)
    assert np.array_equal(oracles.apply_pencil(op, ones),
                          -np.broadcast_to(op.node_potential, op.shape).ravel())
    result = spec.first_stability_eigenvalue(surface(kl), res)
    b = np.broadcast_to(op.node_mass, op.shape).ravel()
    assert abs(result.lambda1 - ones @ oracles.apply_pencil(op, ones) / (ones @ (b * ones))) <= 1e-13
    assert result.residual <= 1e-14
    x = result.eigenvector
    assert x.shape == (op.size,) and not x.flags.writeable
    assert abs(x @ (b * x) - 1.0) <= 1e-13


def test_certified_rung_allocates_no_grid_array():
    # clifford(3, 3) at 16^6 nodes: one float array of the grid is 134 MB
    tracemalloc.start()
    try:
        result = spec.first_stability_eigenvalue(geo.clifford_hypersurface((3, 3)), 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.eigenvector.shape == (16**6,)
    assert abs(result.lambda1 + 12.0) <= 1e-13 and result.residual <= 1e-14
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# Rayleigh quotients
# ---------------------------------------------------------------------------

def test_rayleigh_constant_field(torus, equator2):
    assert abs(spec.rayleigh_quotient(torus, ConstantField(1.0)) + 4.0) <= 1e-12
    assert abs(spec.rayleigh_quotient(equator2, ConstantField(1.0)) + 2.0) <= 1e-12
    U, X = geo.sample_points(torus, 4, seed=0)
    one = ConstantField(1.0)
    lap = fields.surface_laplacian(torus, X, one.ambient_gradient(X), one.ambient_hessian(X))
    assert np.array_equal(lap, np.zeros(4))  # harmonic


def test_rayleigh_A_field_all_families(clifford_families):
    for (k, l), M in clifford_families.items():
        value = spec.rayleigh_quotient(M, spec.test_function_A(M))
        assert abs(value + 2.0 * (k + l)) <= 1e-8


def test_rayleigh_zero_field_rejected(equator2):
    field = spec.test_function_A(equator2)
    with pytest.raises(ZeroTestFunction):
        spec.rayleigh_quotient(equator2, field)
    with pytest.raises(ZeroTestFunction):
        oracles.operator_rayleigh_quotient(equator2, field, resolution=16)


def test_rayleigh_eigenfunction_value(torus):
    # first nonconstant Laplace eigenfunction cos(theta) = sqrt(2) x_0:
    # quotient = 2 - (|A|^2 + n) = -2
    f = AmbientCoordinateField(0, scale=np.sqrt(2.0))
    quad = spec.rayleigh_quotient(torus, f, resolution=64)
    assert abs(quad + 2.0) <= 1e-9
    oper = oracles.operator_rayleigh_quotient(torus, f, resolution=64)
    assert abs(oper + 2.0) <= 5e-3  # discrete eigenvalue carries O(h^2)


@pytest.mark.parametrize("kl, tol", [((2, 2), 1e-8), ((2, 3), 1e-8), ((3, 3), 1e-5)],
                         ids=["clifford22", "clifford23", "clifford33"])
def test_rayleigh_coordinate_field_above_dimension_three(kl, tol):
    # x_0 is a Laplace eigenfunction of eigenvalue n on clifford(k, l), so
    # its quotient is n - 2n = -n; the chart quadrature at the default
    # resolution, capped to 30, 15 and 9 nodes per axis, reaches it, where
    # 2000 sampled chart points were off by 0.09 to 0.26
    M = geo.clifford_hypersurface(kl)
    assert abs(spec.rayleigh_quotient(M, AmbientCoordinateField(0)) + M.dimension) <= tol


def test_rayleigh_quotient_memory_on_clifford23():
    # the x_0 quotient on clifford(2,3), 15^5 quadrature nodes: its
    # Python-heap peak stays under 128 MB (401 MB when the density, the
    # embedding, the chart frame and the gradients were formed over the
    # whole grid at once)
    M = geo.clifford_hypersurface((2, 3))
    tracemalloc.start()
    try:
        value = spec.rayleigh_quotient(M, AmbientCoordinateField(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value + M.dimension) <= 1e-8
    assert peak < 128e6, peak / 1e6


def _meshgrid_tensor_grid(axes):
    """The tensor grid as it was formed before: every axis copied by ``np.meshgrid``, then stacked."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def test_tensor_grid_fills_axis_by_axis(monkeypatch):
    # the stacked nodes, filled one axis at a time, equal the meshgrid stack
    # bit for bit, on float and integer axes; the quadrature of clifford(2,3)
    # at its capped 15^5 grid peaks near its own size (61 MB, twice the
    # 30 MB of nodes, through meshgrid's copies); quadrature and Rayleigh
    # quotient values are unchanged bit for bit
    rng = np.random.default_rng(9)
    for axes in ([np.arange(3)], [np.arange(4), np.arange(3)], [np.linspace(0, 1, 7)] * 3,
                 [rng.normal(size=5), rng.normal(size=1), rng.normal(size=4)]):
        got, ref = geo._tensor_grid(axes), _meshgrid_tensor_grid(axes)
        assert got.dtype == ref.dtype and got.shape == ref.shape and np.array_equal(got, ref)
    chart = geo.clifford_hypersurface((2, 3)).chart
    res = geo._capped_per_axis(48, 5)
    tracemalloc.start()
    try:
        nodes, weights = geo.chart_quadrature(chart, res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nodes.shape == (15**5, 5) and peak < 1.3 * nodes.nbytes, peak / 1e6
    cases = [(geo.clifford_hypersurface((1, 2)), AmbientCoordinateField(1), 24),
             (geo.clifford_hypersurface((2, 3)), AmbientCoordinateField(0), 8),
             (geo.equator(3), ConstantField(1.0), 16)]
    values = [spec.rayleigh_quotient(M, f, resolution=r) for M, f, r in cases]
    monkeypatch.setattr(geo, "_tensor_grid", _meshgrid_tensor_grid)
    former_nodes, former_weights = geo.chart_quadrature(chart, res)
    assert np.array_equal(nodes, former_nodes) and np.array_equal(weights, former_weights)
    assert values == [spec.rayleigh_quotient(M, f, resolution=r) for M, f, r in cases]


def test_rayleigh_scale_invariance(torus):
    f = AmbientCoordinateField(1, scale=1.0)
    base = spec.rayleigh_quotient(torus, f, resolution=32)
    for c in (2.0, -3.5, 1e-4):
        scaled = spec.rayleigh_quotient(torus, AmbientCoordinateField(1, scale=c), resolution=32)
        assert abs(scaled - base) <= 1e-12 * max(1.0, abs(base))


def test_rayleigh_dominates_lambda1(torus):
    # operator-path quotients are exact Rayleigh quotients of the pencil
    op = assemble_jacobi(torus, 32)
    lam1 = spec.first_stability_eigenvalue(torus, 32).lambda1
    rng = np.random.default_rng(0)
    B = op.mass
    for _ in range(20):
        x = rng.normal(size=op.size)
        quot = (x @ (op.stiffness @ x) - x @ (op.potential @ x)) / (x @ (B @ x))
        assert quot >= lam1 - 1e-10


# ---------------------------------------------------------------------------
# test field |A|
# ---------------------------------------------------------------------------

def test_test_function_A_values(clifford_families, equator2):
    f = spec.test_function_A(clifford_families[(2, 2)])
    assert f.constant == 2.0                       # sqrt(n), n = 4
    f = spec.test_function_A(clifford_families[(1, 2)])
    assert abs(f.constant - np.sqrt(3.0)) <= 1e-15
    assert spec.test_function_A(equator2).constant == 0.0


# ---------------------------------------------------------------------------
# curvature identity (finite differences with Christoffel correction)
# ---------------------------------------------------------------------------

def test_fd_laplacian_validated_on_coordinate_eigenfunctions():
    # Delta x_j = -n x_j on the built-in minimal families validates the
    # Christoffel bookkeeping behind the identity check
    for kl in [(2, 1), (2, 2)]:
        M = geo.clifford_hypersurface(kl)
        n = M.dimension
        U, _ = geo.sample_points(M, 30, seed=3, pad=0.02)
        for j in (0, n + 1):
            fn = lambda pts, j=j: M.chart.embed(pts)[..., j]
            lap = oracles.surface_laplacian_fd(M, U, fn, step=1e-3)
            assert np.abs(lap + n * fn(U)).max() <= 1e-5


def test_simons_identity_all_families(clifford_families):
    for (k, l), M in clifford_families.items():
        report = spec.simons_check(M, samples=200, seed=0)
        assert report.max_identity_residual <= 1e-6
        assert report.max_inequality_violation == 0.0
        assert report.sample_count == 200


def test_simons_equator_trivial(equator2):
    report = spec.simons_check(equator2, samples=50)
    assert report.max_identity_residual == 0.0
    assert report.max_inequality_violation == 0.0


def test_simons_refinement_order(clifford_families):
    # residuals are nonincreasing; when they sit at the floor the order is
    # reported as inf (the discrete Christoffels make nabla A vanish
    # algebraically on these product charts)
    ladder = spec.simons_refinement(clifford_families[(2, 1)], steps=(0.08, 0.04, 0.02))
    assert all(a >= b for a, b in zip(ladder, ladder[1:]))
    assert spec.observed_order(ladder) >= 2.0


def _simons_reference(M, samples, seed, step):
    # the check composed from the public difference operators, each
    # evaluating the shape arrays at its own stencil (8n + 3 calls)
    n = M.dimension
    U, _ = geo.sample_points(M, samples, seed=seed, pad=2.0 * step)
    _, _, A0, _, a2_0 = M.shape_batch(U)
    parts = oracles.christoffel_fd(M, U, step)
    _, ginv, gamma = parts
    dA = np.stack([(M.shape_batch(U + e)[2] - M.shape_batch(U - e)[2]) / (2.0 * step)
                   for e in np.eye(n) * step], axis=1)
    nabla = (dA - np.einsum("mdca,mdb->mcab", gamma, A0, optimize=True)
             - np.einsum("mdcb,mad->mcab", gamma, A0, optimize=True))
    grad_A_sq = np.einsum("mc,ma,mb,mcab,mcab->m", ginv, ginv, ginv, nabla, nabla, optimize=True)
    a2_fn = lambda pts: M.shape_batch(pts)[4]  # noqa: E731
    norm_fn = lambda pts: np.sqrt(M.shape_batch(pts)[4])  # noqa: E731
    lap_a2 = oracles.surface_laplacian_fd(M, U, a2_fn, step, parts=parts)
    lap_norm = oracles.surface_laplacian_fd(M, U, norm_fn, step, parts=parts)
    grad_norm_sq = oracles.surface_gradient_sq_fd(M, U, norm_fn, step)
    identity = np.abs(lap_a2 - (2 * grad_A_sq + 2 * n * a2_0 - 2 * a2_0**2))
    violation = np.maximum(0.0, (2.0 / n) * grad_norm_sq + n * a2_0 - a2_0**2
                           - np.sqrt(a2_0) * lap_norm)
    return spec.SimonsReport(float(identity.max()), float(violation.max()), len(U))


def test_simons_check_one_shape_evaluation_per_stencil_point(torus, monkeypatch):
    # two shape evaluations per check at every n (the samples, then the 2n
    # stencil point sets in one batch), and the report of the composed
    # reference bit for bit; the warped closed form (A and |A|^2 varying
    # over the chart, H = 0) makes every difference quotient non-trivial
    def warped(U):
        gdiag, nu, A, H, a2 = torus.shape_batch(U)
        return gdiag, nu, A * (1.0 + 0.3 * np.sin(U[..., :1, None])), H, a2 * (2.0 + np.cos(U[..., 1]))

    warped_torus = geo.ParametrizedHypersurface(torus.chart, torus.product, closed_form=warped)
    assert _simons_reference(warped_torus, 60, 3, 2e-3).max_identity_residual > 1e-3
    for M in (geo.clifford_hypersurface((2, 1)), warped_torus, geo.clifford_hypersurface((3, 3))):
        for step in (2e-3, 0.04):
            expected = _simons_reference(M, 60, 3, step)
            calls = []
            original = M.shape_batch
            monkeypatch.setattr(M, "shape_batch", lambda U: calls.append(1) or original(U))
            assert spec.simons_check(M, samples=60, seed=3, step=step) == expected
            assert len(calls) == 2
            monkeypatch.undo()


def test_simons_nonminimal_rejected(torus):
    base = torus.chart

    def bad_closed_form(U):
        gdiag, nu, A, H, a2 = torus.shape_batch(U)
        return gdiag, nu, A, H + 0.5, a2  # fake mean curvature

    M = geo.ParametrizedHypersurface(base, torus.product, closed_form=bad_closed_form)
    with pytest.raises(NonMinimal):
        spec.simons_check(M, samples=10)


def test_observed_order_floor_semantics():
    assert spec.observed_order([1e-13, 2e-13, 5e-14]) == float("inf")
    assert 1.9 <= spec.observed_order([4e-2, 1e-2, 2.5e-3]) <= 2.1
    assert spec.observed_order([1e-2, 1e-2]) < 1.0
    # a pair with both errors below the floor is skipped; the one above it
    # reads its ratio to the floor, log2(1e-3 / 1e-9)
    assert spec.observed_order([1e-3, 1e-12, 1e-12]) == float(np.log2(1e-3 / spec.ORDER_FLOOR))
