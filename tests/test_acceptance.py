"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.

Criterion 6 checks the gradient estimate int_M |grad phi|^q <= 2^(n+q) C_V
epsilon on the 2-dimensional product torus with exponent q = 1.  Its budget
hypothesis sum r_i^(n-q) < epsilon is the finite form of H^(n-q)(Sigma) = 0,
which a finite singular set meets exactly when q < n.  For q = n = 2 the
budget sum is the plain ball count, which can never drop below epsilon <= 0.1
for a nonempty set, so the cover constructor must refuse every such
configuration with BudgetInfeasible; the test asserts that refusal on the
same sweep.  Ignoring the budget would not rescue q = n: the per-ball
annulus integral is then scale-invariant (about 3 pi per ball on the torus),
1.3 times 2^4 C_V epsilon for one ball at epsilon = 0.1 and 13 times at
epsilon = 0.01.
"""

import math
import time

import numpy as np
import pytest

from spherestab import cutoff as cut
from spherestab import estimates as est
from spherestab import geometry as geo
from spherestab import operators as ops
from spherestab import spectrum as spec
from spherestab.errors import (
    BoundViolation,
    BudgetInfeasible,
    InsufficientSamples,
    ZeroTestFunction,
)
from spherestab.fields import AmbientCoordinateField

FAMILIES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_equator_exactness():
    t0 = time.time()
    exact = all(
        spec.first_stability_eigenvalue(ops.analytic_laplace_spectrum(geo.equator(n))).lambda1
        == -float(n)
        for n in range(1, 7)
    )
    res = spec.first_stability_eigenvalue(ops.assemble_jacobi(geo.equator(2), 128))
    err = abs(res.lambda1 + 2.0)
    elapsed = time.time() - t0
    verdict(
        1,
        exact and err <= 1e-6 and elapsed < 10.0,
        f"lambda1(equator(n)) = -n exactly for n=1..6; numeric n=2 err {err:.2e} "
        f"({elapsed:.1f}s < 10s)",
    )


def test_criterion_02_clifford_equality_case():
    t0 = time.time()
    torus = geo.clifford_hypersurface((1, 1))
    analytic = spec.first_stability_eigenvalue(ops.analytic_laplace_spectrum(torus))
    errors = []
    vec_var = None
    for res in (32, 64, 128):
        r = spec.first_stability_eigenvalue(ops.assemble_jacobi(torus, res))
        errors.append(abs(r.lambda1 + 4.0))
        x = r.eigenvector
        vec_var = (x.max() - x.min()) / np.abs(x).max()
    # the constant vector is an exact discrete eigenvector (V/B is constant
    # and S annihilates constants), so the errors sit at the solver floor at
    # every resolution; observed_order reports inf for such floored ladders
    order = spec.observed_order(errors)
    elapsed = time.time() - t0
    verdict(
        2,
        analytic.lambda1 == -4.0
        and errors[-1] <= 1e-6
        and order >= 2.0
        and vec_var <= 1e-5
        and elapsed < 30.0,
        f"analytic -4 exact; numeric errs {[f'{e:.1e}' for e in errors]} "
        f"(order {order}), eigenvector variation {vec_var:.1e} ({elapsed:.1f}s < 30s)",
    )


def test_criterion_03_equality_case_geometry():
    worst_a2 = worst_h = 0.0
    for kl in FAMILIES:
        M = geo.clifford_hypersurface(kl)
        U, _ = geo.sample_points(M, 1000, seed=0)
        _, _, _, H, a2 = M.shape_batch(U)
        worst_a2 = max(worst_a2, float(np.abs(a2 - M.dimension).max()))
        worst_h = max(worst_h, float(np.abs(H).max()))
    verdict(
        3,
        worst_a2 <= 1e-10 and worst_h <= 1e-10,
        f"max | |A|^2 - n | = {worst_a2:.2e}, max |H| = {worst_h:.2e} "
        f"at 10^3 points on {FAMILIES}",
    )


def test_criterion_04_simons_identity():
    worst_res = 0.0
    worst_viol = 0.0
    orders = []
    for kl in FAMILIES:
        M = geo.clifford_hypersurface(kl)
        rep = spec.simons_check(M, samples=200, seed=0)
        worst_res = max(worst_res, rep.max_identity_residual)
        worst_viol = max(worst_viol, rep.max_inequality_violation)
        ladder = spec.simons_refinement(M, steps=(0.08, 0.04, 0.02), samples=60)
        assert all(a >= b for a, b in zip(ladder, ladder[1:]))
        orders.append(spec.observed_order(ladder))
    verdict(
        4,
        worst_res <= 1e-6 and worst_viol == 0.0 and min(orders) >= 2.0,
        f"identity residual {worst_res:.2e} <= 1e-6, violation {worst_viol} == 0, "
        f"refinement order >= 2 on all families",
    )


def test_criterion_05_rayleigh_machinery():
    worst = 0.0
    for kl in FAMILIES:
        M = geo.clifford_hypersurface(kl)
        value = spec.rayleigh_quotient(M, spec.test_function_A(M))
        worst = max(worst, abs(value + 2.0 * M.dimension))
    rejected = False
    try:
        spec.rayleigh_quotient(geo.equator(3), spec.test_function_A(geo.equator(3)))
    except ZeroTestFunction:
        rejected = True
    verdict(
        5,
        worst <= 1e-8 and rejected,
        f"|A|-field quotient hits -2n within {worst:.2e} on all families; "
        f"equator field rejected as zero: {rejected}",
    )


def test_criterion_06_cutoff_gradient_estimate():
    # clifford(1,1) (n = 2), synthetic singular sets of 1, 5, 20 points,
    # epsilon in {0.1, 0.05, 0.01}.  The estimate is checked at q = 1 < n,
    # where a finite set satisfies the budget hypothesis; r_min = 1e-4 keeps
    # twenty clusters inside the smallest budget (the default 1e-3 spends
    # 20 * 1e-3 = 0.02 >= 0.01).  At q = n = 2 the budget sum is the ball
    # count >= 1 > epsilon, so every configuration must be refused.
    t0 = time.time()
    torus = geo.clifford_hypersurface((1, 1))
    c_v = geo.measure_volume_growth(torus)
    failures = []
    ratios = []
    for count in (1, 5, 20):
        _, pts = geo.sample_points(torus, count, seed=count)
        for eps in (0.1, 0.05, 0.01):
            try:
                cut.cover_singular_set(pts, n=2, q=2, epsilon=eps, r_min=1e-4)
                failures.append((count, eps, "q = n = 2 cover accepted"))
            except BudgetInfeasible:
                pass
            try:
                cover = cut.cover_singular_set(pts, n=2, q=1, epsilon=eps, r_min=1e-4)
                field = cut.build_inf_cutoff(cover)
                rep = cut.gradient_integral_estimate(torus, field, C_V=c_v)
                ratios.append(rep.integral / rep.bound)
                if not rep.passed:
                    failures.append((count, eps, f"integral {rep.integral:.3g} > {rep.bound:.3g}"))
            except (BudgetInfeasible, BoundViolation, InsufficientSamples) as exc:
                failures.append((count, eps, f"{type(exc).__name__}: {exc}"))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    detail = (
        f"q=1: 9/9 runs below 2^3 C_V eps (integral/bound {min(ratios):.3f}-{max(ratios):.3f}); "
        f"q=n=2 refused 9/9 ({elapsed:.1f}s < 60s)"
        if ok
        else f"{len(failures)} failure(s) ({elapsed:.1f}s): {failures}"
    )
    verdict(6, ok, detail)


def random_admissible_family(rng, N, alpha, beta, max_balls=12):
    m_target = int(rng.integers(3, max_balls + 1))
    radii_pool = rng.uniform(1.0, beta, size=m_target * 60)
    L = (m_target ** (1.0 / N)) * (2.0 * beta / alpha) * 1.6
    pool = rng.uniform(0.0, L, size=(m_target * 60, N))
    centers, radii = [], []
    for cand, r in zip(pool, radii_pool):
        if all(np.linalg.norm(cand - c) >= (r + rc) / alpha for c, rc in zip(centers, radii)):
            centers.append(cand)
            radii.append(r)
            if len(centers) == m_target:
                break
    return np.array(centers), np.array(radii)


def test_criterion_07_intersection_bound_suite():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    violations = 0
    configs = 0
    for N in (1, 2, 3):
        for alpha in (1, 2, 3):
            for beta in (1, 2):
                for _ in range(1000):
                    centers, radii = random_admissible_family(rng, N, alpha, beta)
                    deg, bound = cut.intersection_bound_check(centers, radii, alpha, beta)
                    configs += 1
                    if deg > bound:
                        violations += 1
    elapsed = time.time() - t0
    verdict(
        7,
        violations == 0 and configs == 18_000 and elapsed < 60.0,
        f"{configs} admissible configurations, {violations} violations of "
        f"(3 alpha beta)^N - 1 ({elapsed:.1f}s < 60s)",
    )


def test_criterion_08_smooth_cutoff_report():
    torus = geo.clifford_hypersurface((1, 1))
    c_v = geo.measure_volume_growth(torus, metric="euclidean")
    _, pts = geo.sample_points(torus, 1, seed=5)
    eps = 0.05
    r = math.sqrt(0.8 * eps)  # area-budget radius: sum r^k = 0.8 eps < eps (k = 2)
    cover = cut.BallCover(pts, np.array([r]), 2, 0.0, eps, "euclidean", points=pts)
    field = cut.build_product_cutoff(cover)
    rep = cut.mr_quality_report(torus, field, C_V=c_v, seed=0)
    area_ok = rep.area_not_one.value < rep.bounds[0]
    verdict(
        8,
        rep.passed and area_ok,
        f"H^2(phi != 1) = {rep.area_not_one.value:.4f} < C_V eps = {rep.bounds[0]:.4f}; "
        f"grad L2 {rep.grad_l2.value:.3g} < {rep.bounds[1]:.3g}; "
        f"lap L1 {rep.lap_l1.value:.3g} < {rep.bounds[2]:.3g}",
    )


def test_criterion_09_cone_threshold():
    t0 = time.time()
    table = est.cone_stability_table(10)
    pattern_ok = all(v.stable_possible == (v.n >= 6) for v in table)
    margin6 = table[5].margin
    elapsed = time.time() - t0
    verdict(
        9,
        pattern_ok and margin6 == 0.25 and elapsed < 1.0,
        f"stablePossible false for n <= 5, true for n >= 6; margin at n=6 is "
        f"{margin6} exactly ({elapsed:.3f}s < 1s)",
    )


def test_criterion_10_ibp_residual():
    torus = geo.clifford_hypersurface((1, 1))
    _, pts = geo.sample_points(torus, 1, seed=2)
    u = AmbientCoordinateField(0, scale=math.sqrt(2.0))
    crosses = []
    for eps in (0.1, 0.05, 0.025):
        cover = cut.cover_singular_set(pts, n=2, q=1, epsilon=eps)
        crosses.append(cut.cutoff_cross_term(torus, cut.build_inf_cutoff(cover), u))
    monotone = crosses[0] > crosses[1] > crosses[2]
    cover = cut.cover_singular_set(pts, n=2, q=1, epsilon=0.01)
    residual = cut.ibp_residual(torus, cut.build_inf_cutoff(cover), u, u)
    verdict(
        10,
        monotone and residual <= 1e-4,
        f"cross term {[f'{c:.4f}' for c in crosses]} decreasing; residual at "
        f"eps=0.01 is {residual:.2e} <= 1e-4",
    )
