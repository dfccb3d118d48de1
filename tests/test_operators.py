"""Discrete assembly and the analytic spectrum backend."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from spherestab import geometry as geo
from spherestab import operators as ops
from spherestab.errors import AssemblyFailure, DegenerateChart


def lowest_pencil_eigs(op, k=6):
    # the bare Laplacian: S alone, without the potential V
    vals = eigsh(op.stiffness.tocsc(), k=k, M=op.mass, sigma=-0.5, which="LM")[0]
    return np.sort(vals)


def test_potential_mass_ratio_torus(torus):
    op = ops.assemble_jacobi(torus, 64)
    ratio = op.potential.diagonal() / op.mass.diagonal()
    assert np.abs(ratio - 4.0).max() <= 1e-10   # |A|^2 + n = 2 + 2


def test_potential_mass_ratio_equator(equator2):
    op = ops.assemble_jacobi(equator2, 64)
    ratio = op.potential.diagonal() / op.mass.diagonal()
    assert np.abs(ratio - 2.0).max() <= 1e-10


def test_stiffness_kernel_and_symmetry(torus, equator2):
    for M in (torus, equator2):
        op = ops.assemble_jacobi(M, 32)
        S = op.stiffness
        assert np.abs((S - S.T)).max() == 0.0
        ones = np.ones(op.size)
        assert np.abs(S @ ones).max() <= 1e-10 * np.abs(S.data).max()
        assert op.mass.diagonal().min() > 0.0


def test_constant_is_harmonic(torus):
    op = ops.assemble_jacobi(torus, 64)
    vals, vecs = eigsh(op.stiffness.tocsc(), k=1, M=op.mass, sigma=-0.5, which="LM")
    assert abs(vals[0]) <= 1e-10
    x = vecs[:, 0]
    assert (x.max() - x.min()) <= 1e-10 * np.abs(x).max()  # constant eigenvector


def test_torus_spectrum_matches_fft_oracle(torus):
    # Exact discrete eigenvalues of the periodic scheme:
    # (8/h^2)(sin^2(pi j / N) + sin^2(pi m / N)), the FFT diagonalization
    # of the translation-invariant stencil.
    N = 32
    op = ops.assemble_jacobi(torus, N)
    h = 2.0 * np.pi / N
    j = np.arange(N)
    lam1d = (4.0 / h**2) * np.sin(np.pi * j / N) ** 2
    fft_vals = np.sort((lam1d[:, None] + lam1d[None, :]).ravel()) * 2.0
    dense_S = op.stiffness.toarray()
    dense_B = op.mass.toarray()
    vals = np.sort(scipy.linalg.eigh(dense_S, dense_B, eigvals_only=True))
    assert np.abs(vals - fft_vals).max() <= 1e-9


def test_analytic_spectra_values():
    s2 = ops.analytic_laplace_spectrum(geo.equator(2))
    assert np.allclose(s2.eigenvalues(6), [0, 2, 2, 2, 6, 6])
    s1 = ops.analytic_laplace_spectrum(geo.equator(1))
    assert np.allclose(s1.eigenvalues(5), [0, 1, 1, 4, 4])
    t = ops.analytic_laplace_spectrum(geo.clifford_hypersurface((1, 1)))
    assert np.allclose(t.eigenvalues(7), [0, 2, 2, 2, 2, 4, 4])


def test_analytic_spectrum_monotone_nonnegative():
    for M in [geo.equator(3), geo.clifford_hypersurface((1, 1)), geo.clifford_hypersurface((2, 2))]:
        vals = ops.analytic_laplace_spectrum(M).eigenvalues(25)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(vals >= 0.0)


@pytest.mark.parametrize("kl", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (1, 12)])
def test_product_spectrum_morse_index_and_nullity(kl):
    # stability eigenvalues mu - 2n: -2n once, -n from the n + 2 coordinate
    # functions, so Morse index n + 3, then 0 from the (k+1)(l+1) products
    # of the factors' first harmonics, and nothing else up to 0
    k, l = kl
    n = k + l
    count = n + 3 + (k + 1) * (l + 1) + 1
    vals = ops.analytic_laplace_spectrum(geo.clifford_hypersurface(kl)).eigenvalues(count) - 2 * n
    assert np.count_nonzero(vals < 0) == n + 3
    assert np.count_nonzero(vals == 0) == (k + 1) * (l + 1)
    assert vals[0] == -2 * n and np.count_nonzero(vals == -n) == n + 2 and vals[-1] > 0


@pytest.mark.parametrize("kl", [(1, 1), (2, 1), (2, 2), (1, 3), (3, 3)])
def test_product_spectrum_matches_brute_force_sums(kl):
    # every pair of factor degrees up to 8, fully expanded and sorted
    k, l = kl
    n = k + l
    factor = [[(Fraction(j * (j + d - 1) * n, d), ops._harmonic_count(d, j)) for j in range(9)]
              for d in kl]
    sums = sorted(a + b for a, ma in factor[0] for b, mb in factor[1] for _ in range(ma * mb))
    count = 60
    assert sums[count - 1] < min(f[-1][0] for f in factor)  # degree 9 cannot reach the first 60
    got = ops.analytic_laplace_spectrum(geo.clifford_hypersurface(kl)).eigenvalues(count)
    assert np.array_equal(got, np.array([float(v) for v in sums[:count]]))


def _cluster_sizes(vals, gap=1.0):
    return [len(c) for c in np.split(vals, np.flatnonzero(np.diff(vals) > gap) + 1)]


def test_product_spectrum_clusters_match_dense_pencil():
    # the bottom of clifford(2,1)'s stability spectrum, -6 (1), -3 (5) and
    # 0 (6), against dense eigh of the assembled pencil at resolution 10:
    # the discretization splits each cluster by O(h^2) and moves the nullity
    # cluster below 0, so clusters are counted, not signs
    M = geo.clifford_hypersurface((2, 1))
    exact = ops.analytic_laplace_spectrum(M).eigenvalues(13) - 6.0
    op = ops.assemble_jacobi(M, 10)
    A, B = (op.stiffness - op.potential).tocsc(), op.mass
    numeric = scipy.linalg.eigh(A.toarray(), B.toarray(), eigvals_only=True, subset_by_index=[0, 12])
    assert _cluster_sizes(exact) == _cluster_sizes(numeric) == [1, 5, 6, 1]
    assert np.abs(numeric[:12] - exact[:12]).max() <= 0.25


def test_sphere_spectrum_against_assembled_oracle(equator2):
    # brute-force diagonalization of the assembled operator; the raw
    # second-order errors are ~1e-3 at resolution 128, so the 1e-4 match
    # uses Richardson extrapolation of the same oracle over {128, 256}
    v128 = lowest_pencil_eigs(ops.assemble_jacobi(equator2, 128), k=5)
    v256 = lowest_pencil_eigs(ops.assemble_jacobi(equator2, 256), k=5)
    extrapolated = (4.0 * v256 - v128) / 3.0
    exact = ops.analytic_laplace_spectrum(equator2).eigenvalues(5)
    assert np.abs(extrapolated - exact).max() <= 1e-4


def test_discrete_spectrum_convergence_order(torus, equator2):
    for M in (torus, equator2):
        exact = ops.analytic_laplace_spectrum(M).eigenvalues(4)
        errs = []
        for res in (32, 64, 128):
            vals = lowest_pencil_eigs(ops.assemble_jacobi(M, res), k=4)
            errs.append(np.abs(vals - exact).max())
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) >= 1.9


def test_potential_shift_moves_eigenvalues_exactly(torus):
    op = ops.assemble_jacobi(torus, 16)
    A = (op.stiffness - op.potential).toarray()
    B = op.mass.toarray()
    base = np.sort(scipy.linalg.eigh(A, B, eigvals_only=True))
    c = 1.75
    shifted = np.sort(scipy.linalg.eigh(A - c * B, B, eigvals_only=True))
    assert np.abs(shifted - (base - c)).max() <= 1e-10


def test_coo_export_roundtrip(tmp_path, torus):
    op = ops.assemble_jacobi(torus, 8)
    path = tmp_path / "stiffness.txt"
    op.export_coo("stiffness", path)
    rows = np.array(
        [[float(tok) for tok in line.split()] for line in path.read_text().splitlines()]
    )
    rebuilt = sp.csr_matrix(
        (rows[:, 2], (rows[:, 0].astype(int), rows[:, 1].astype(int))),
        shape=op.stiffness.shape,
    )
    assert np.abs((rebuilt - op.stiffness)).max() == 0.0


def _coo_reference(M, resolution):
    """(S, B, V) by the former assembly: a COO triplet sweep with merged duplicates.

    Per edge w at (ii, ii) and (jj, jj) and -w at (ii, jj) and (jj, ii), laid
    out slab after slab per axis; ``sum_duplicates`` adds each row's entries in
    that order wherever scipy's per-row sort is stable (rows of <= 16 entries).
    """
    chart = M.chart
    axes = ops.grid_axes(chart, resolution)
    shapes = [len(ax[0]) for ax in axes]
    n_nodes = int(np.prod(shapes))
    idx = np.arange(n_nodes).reshape(shapes)
    nodes = geo._tensor_grid([ax[0] for ax in axes])
    cell = float(np.prod([ax[1] for ax in axes]))
    mass = np.prod(chart.metric_diag(nodes), axis=-1) ** 0.5 * cell
    pot = (M.shape_batch(nodes)[4] + M.dimension) * mass
    ndim = chart.dim
    grid = nodes.reshape(*shapes, ndim)
    sweeps = []
    for a in range(ndim):
        coords, h = axes[a]
        keep = slice(None) if chart.periodic[a] else slice(0, -1)
        lo = np.moveaxis(idx, a, 0)[keep]
        hi = np.moveaxis(np.roll(idx, -1, axis=a), a, 0)[keep]
        pts = np.moveaxis(grid, a, 0)[keep].copy()
        pts[..., a] = (coords + h / 2.0)[keep].reshape((-1,) + (1,) * (ndim - 1))
        gd = chart.metric_diag(pts.reshape(-1, ndim))
        w = np.prod(gd, axis=-1) ** 0.5 / gd[:, a] * cell / h**2
        sweeps.append([arr.reshape(len(lo), -1) for arr in (lo, hi, w)])
    rows = np.concatenate([np.stack([ii, jj, ii, jj], axis=1).ravel() for ii, jj, _ in sweeps])
    cols = np.concatenate([np.stack([ii, jj, jj, ii], axis=1).ravel() for ii, jj, _ in sweeps])
    vals = np.concatenate([np.stack([w, w, -w, -w], axis=1).ravel() for _, _, w in sweeps])
    S = sp.csr_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes))
    S.sum_duplicates()
    return S, sp.diags(mass).tocsr(), sp.diags(pot).tocsr()


def _assert_matches_reference(M, resolution, exact_diagonal=True):
    op = ops.assemble_jacobi(M, resolution)
    S = op.stiffness
    ref_S, ref_B, ref_V = _coo_reference(M, resolution)
    assert S.has_canonical_format
    for name in ("indptr", "indices", "data"):
        assert getattr(S, name).dtype == getattr(ref_S, name).dtype
    assert np.array_equal(S.indptr, ref_S.indptr)
    assert np.array_equal(S.indices, ref_S.indices)
    for got, ref in ((op.mass, ref_B), (op.potential, ref_V)):
        assert got.indices.dtype == ref.indices.dtype == np.int32
        assert np.array_equal(got.diagonal(), ref.diagonal())
    if exact_diagonal:
        assert np.array_equal(S.data, ref_S.data)
    else:
        rows = np.repeat(np.arange(op.size), np.diff(S.indptr))
        off = rows != S.indices
        assert np.array_equal(S.data[off], ref_S.data[off])
        # two orders of a sum of 2d positive terms differ by at most
        # (2d - 1) eps times the sum
        bound = (2 * M.dimension - 1) * np.finfo(float).eps * ref_S.diagonal()
        assert np.all(np.abs(S.diagonal() - ref_S.diagonal()) <= bound)
    # the diagonal is the stencil's fixed-order sum: axis by axis, the flux to
    # the lo neighbour before the flux to the hi neighbour
    shapes = [len(ax[0]) for ax in ops.grid_axes(M.chart, resolution)]
    idx = np.arange(op.size).reshape(shapes)
    diagonal = np.zeros(op.size)
    for a in range(len(shapes)):
        for shift in (1, -1):
            nb = np.roll(idx, shift, axis=a).ravel()
            diagonal = diagonal - np.asarray(ref_S[np.arange(op.size), nb]).ravel()
    assert np.array_equal(S.diagonal(), diagonal)
    # no stored entry couples the two box ends of a polar axis
    coo = S.tocoo()
    r, c = np.unravel_index(coo.row, shapes), np.unravel_index(coo.col, shapes)
    for a, periodic in enumerate(M.chart.periodic):
        if not periodic:
            assert np.abs(r[a] - c[a]).max() == 1


# (surface, grids) of the reference comparisons; uneven and odd per-axis counts
_GRIDS = [
    (geo.equator(1), [8, 33]),
    (geo.equator(2), [[8, 13], 128]),
    (geo.equator(3), [9]),
    (geo.equator(4), [8]),
    (geo.clifford_hypersurface((1, 1)), [[8, 300]]),
    (geo.clifford_hypersurface((1, 2)), [9]),
    (geo.clifford_hypersurface((2, 1)), [16, 24]),
    (geo.clifford_hypersurface((2, 2)), [[8, 9, 10, 8]]),
    (geo.clifford_hypersurface((3, 1)), [[8, 9, 10, 11]]),
    (geo.clifford_hypersurface((1, 3)), [8]),
]
_GRID_IDS = ["equator1", "equator2", "equator3", "equator4", "clifford11", "clifford12",
             "clifford21", "clifford22", "clifford31", "clifford13"]


@pytest.mark.parametrize("M, resolutions", _GRIDS, ids=_GRID_IDS)
def test_stencil_assembly_matches_coo_reference(M, resolutions):
    # up to n = 4 every row has <= 16 COO entries, so the reference sums each
    # diagonal in the stencil's fixed order and the match is bit for bit
    for res in resolutions:
        _assert_matches_reference(M, res)


@pytest.mark.parametrize("M", [geo.equator(5), geo.clifford_hypersurface((3, 2))],
                         ids=["equator5", "clifford32"])
def test_stencil_assembly_matches_coo_reference_n5(M):
    # 20-entry COO rows go through scipy's unstable sort, so the reference
    # sums each diagonal in an arbitrary order: off-diagonals bit for bit, the
    # diagonal to the rounding of its sum
    _assert_matches_reference(M, 8, exact_diagonal=False)


@pytest.mark.parametrize("M, resolutions", _GRIDS + [(geo.equator(5), [8])],
                         ids=_GRID_IDS + ["equator5"])
def test_open_grid_metric_matches_stacked(M, resolutions):
    # the assembly's open-grid metric, on the node grid and on each axis's
    # midpoint grid, against the stacked form at the full grid's points
    chart = M.chart
    for res in resolutions:
        axes = ops.grid_axes(chart, res)
        shapes = tuple(len(ax[0]) for ax in axes)
        node_coords = [ax[0] for ax in axes]
        grids = [node_coords] + [
            node_coords[:a] + [node_coords[a] + h / 2.0] + node_coords[a + 1 :]
            for a, (_, h) in enumerate(axes)
        ]
        for coords in grids:
            stacked = chart.metric_diag(geo._tensor_grid(coords))
            open_grid = chart.metric_diag(np.ix_(*coords))
            assert isinstance(open_grid, tuple) and len(open_grid) == chart.dim
            for b, entry in enumerate(open_grid):
                full = np.broadcast_to(entry, shapes).ravel()
                assert np.array_equal(full, stacked[:, b])
            sqrt_det = np.broadcast_to(geo._row_product(open_grid) ** 0.5, shapes).ravel()
            assert np.array_equal(sqrt_det, np.prod(stacked, axis=-1) ** 0.5)


def _former_sphere_metric_diag(angles):
    """The stacked hyperspherical metric loop as it was before the open grid."""
    angles = np.asarray(angles, dtype=float)
    k = angles.shape[-1]
    diag = np.ones(angles.shape)
    run = np.ones(angles.shape[:-1])
    for i in range(k):
        diag[..., i] = run
        run = run * np.sin(angles[..., i]) ** 2
    return diag


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sphere_metric_diag_matches_former_recurrence(k):
    # the recurrence that skips the last angle's sine, in point and open-grid
    # form, against the loop that took every sine: bit for bit, at poles too
    rng = np.random.default_rng(40 + k)
    axes = [np.concatenate([[0.0, np.pi, -np.pi / 2, 2 * np.pi], rng.uniform(-7.0, 7.0, 5 + a)])
            for a in range(k)]
    grid = geo._tensor_grid(axes)
    former = _former_sphere_metric_diag(grid)
    assert np.array_equal(geo._sphere_metric_diag(grid), former)
    assert np.array_equal(geo._sphere_metric_diag(grid[3]), former[3])
    open_grid = geo._sphere_metric_diag(np.ix_(*axes))
    assert isinstance(open_grid, tuple) and len(open_grid) == k
    shape = tuple(len(a) for a in axes)
    for i, entry in enumerate(open_grid):
        assert np.array_equal(np.broadcast_to(entry, shape).ravel(), former[:, i])


@pytest.mark.parametrize("k, l", [(1, 0), (2, 0), (3, 0), (5, 0), (1, 1), (1, 2), (2, 1),
                                  (2, 2), (1, 3), (3, 1), (3, 2)])
def test_stacked_metric_matches_former_loop(k, l):
    M = geo.equator(k) if l == 0 else geo.clifford_hypersurface((k, l))
    chart = M.chart
    rng = np.random.default_rng(10 * k + l)
    for base in [(), (1,), (500,), (7, 9)]:
        U = rng.uniform(chart.box[:, 0], chart.box[:, 1], size=base + (M.dimension,))
        if l == 0:
            former = _former_sphere_metric_diag(U)
            assert np.array_equal(geo._sphere_metric_diag(U), former)
        else:
            rk, rl = M.product.radii
            former = np.concatenate([_former_sphere_metric_diag(U[..., :k]) * rk**2,
                                     _former_sphere_metric_diag(U[..., k:]) * rl**2], axis=-1)
        got = chart.metric_diag(U)
        assert got.shape == former.shape and got.dtype == former.dtype
        assert np.array_equal(got, former)


@pytest.mark.parametrize("M", [geo.equator(1), geo.equator(3), geo.clifford_hypersurface((1, 1)),
                               geo.clifford_hypersurface((2, 3))],
                         ids=["equator1", "equator3", "clifford11", "clifford23"])
def test_norm_A_sq_matches_shape_batch(M):
    chart = M.chart
    U = np.random.default_rng(3).uniform(chart.box[:, 0], chart.box[:, 1], size=(64, M.dimension))
    for pts in (U, U[:1], U[0:0]):
        got, ref = geo._norm_A_sq(M, pts), M.shape_batch(pts)[4]
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("M", [geo.equator(2), geo.clifford_hypersurface((2, 1))],
                         ids=["equator2", "clifford21"])
def test_assembly_never_builds_shape_batch(M, monkeypatch):
    expected = ops.assemble_jacobi(M, 8)

    def refuse(U):
        raise AssertionError("assembly built the closed-form shape batch")

    monkeypatch.setattr(M, "_closed_form", refuse)
    with pytest.raises(AssertionError):
        M.shape_batch(np.zeros((1, M.dimension)))
    op = ops.assemble_jacobi(M, 8)
    for name in ("stiffness", "mass", "potential"):
        assert np.array_equal(getattr(op, name).toarray(), getattr(expected, name).toarray())


def _sphere_chart_on_box(box):
    """The hyperspherical S^2 chart with its coordinate box replaced."""
    return dataclasses.replace(geo.equator(2).chart, box=np.array(box, dtype=float))


def test_assembly_refuses_degenerate_open_grid(equator2):
    # polar nodes at -0.5 + (i + 1/2) * 1 = i: the node t = 0 has g_11 = sin^2 0 = 0
    degenerate = _sphere_chart_on_box([[-0.5, 7.5], [0.0, 2.0 * np.pi]])
    M = geo.ParametrizedHypersurface(degenerate, equator2.product)
    assert np.any(geo._tensor_grid([ops.grid_axes(degenerate, 8)[0][0]]) == 0.0)
    with pytest.raises(DegenerateChart, match="metric degenerates at a grid node"):
        ops.assemble_jacobi(M, 8)
    # shifted off the zeros of sin, the same chart passes the metric and mass checks
    shifted = _sphere_chart_on_box([[0.25, 8.25], [0.0, 2.0 * np.pi]])
    gdiag = shifted.metric_diag(np.ix_(*[ax[0] for ax in ops.grid_axes(shifted, 8)]))
    assert all(np.all(g > 0) for g in gdiag)


def test_assembly_refuses_vanishing_mass(equator2):
    # every metric entry positive, but their product underflows to 0
    def tiny(U):
        if isinstance(U, tuple):
            return tuple(np.full(np.shape(t), 1e-200) for t in U)
        return np.full(np.shape(U), 1e-200)

    chart = dataclasses.replace(equator2.chart, metric_diag=tiny)
    with pytest.raises(AssemblyFailure):
        ops.assemble_jacobi(geo.ParametrizedHypersurface(chart, equator2.product), 8)


def test_assembly_preconditions(torus):
    with pytest.raises(ValueError):
        ops.assemble_jacobi(torus, 4)
