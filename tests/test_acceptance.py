"""Acceptance suite: one test per release criterion, each at its pinned tolerance.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) before asserting, so the suite doubles as a report.
"""

import math
import time

import numpy as np
import pytest

from nbsloc import cli, specfun, verify
from nbsloc.bergman import (
    BergmanFunction,
    bargmann_transform,
    kernel_closed,
    kernel_limit,
    kernel_series,
    transferred_apply,
)
from nbsloc.locop import (
    disk_eigenvalue,
    landau_density,
    leakage_bound,
    localized_overlap,
    mc_eigenvalue,
    beta_density,
    spectral_apply,
)
from nbsloc.quadrature import (
    disk_grid,
    half_line_grid,
    hamiltonian_residual,
    mapped_legendre,
)
from nbsloc.states import (
    LocalizationRadius,
    ModelParams,
    bergman_basis,
    laguerre_function,
    nb_pmf,
)


def _report(name: str, worst: float, tol: float, ok: bool | None = None) -> None:
    ok = (worst <= tol) if ok is None else ok
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} (worst {worst:.3e}, tol {tol:.1e})")
    assert ok


def _disk_draw(rng: np.random.Generator, radius: float) -> complex:
    r = radius * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return r * complex(math.cos(theta), math.sin(theta))


def test_c1_hypergeometric_identity_suite():
    start = time.monotonic()
    worst = 0.0
    for B in (0.75, 1.0, 1.5, 2.5, 4.0):
        got = specfun.gauss_2f1(2.0 - 2.0 * B, 1.0, 2.0, 1.0).value.real
        worst = max(worst, abs(got - 1.0 / (2.0 * B - 1.0)))
    gauss_ok = worst <= 1e-10

    rng = np.random.default_rng(2026)
    worst_f1 = 0.0
    for _ in range(20):
        a, b1, b2 = rng.uniform(-2.0, 2.0, 3)
        c = rng.uniform(1.0, 4.0)
        z = rng.uniform(-0.45, 0.45)
        diag = specfun.appell_f1(a, b1, b2, c, z, z).value
        reduced = specfun.gauss_2f1(a, b1 + b2, c, z).value
        worst_f1 = max(worst_f1, abs(diag - reduced) / max(abs(reduced), 1e-30))
    for _ in range(20):
        a, b1, b2 = rng.uniform(-2.0, 2.0, 3)
        c = rng.uniform(1.0, 4.0)
        u, v = rng.uniform(-0.3, 0.3, 2)
        lhs = specfun.appell_f1(a, b1, b2, c, u, v).value
        pfaff = (1.0 - u) ** (-b1) * (1.0 - v) ** (-b2) * specfun.appell_f1(
            c - a, b1, b2, c, u / (u - 1.0), v / (v - 1.0)).value
        euler = (1.0 - u) ** (c - a - b1) * (1.0 - v) ** (-b2) * specfun.appell_f1(
            c - a, c - b1 - b2, b2, c, u, (u - v) / (1.0 - v)).value
        scale = max(abs(lhs), 1e-30)
        worst_f1 = max(worst_f1, abs(lhs - pfaff) / scale, abs(lhs - euler) / scale)
    elapsed = time.monotonic() - start
    _report("C1 hypergeometric-identities", max(worst, worst_f1), 1e-9,
            ok=gauss_ok and worst_f1 <= 1e-9 and elapsed < 10.0)


def test_c2_kernel_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2027)
    worst = 0.0
    for B in (0.75, 1.0, 1.5, 2.5):
        for s in (0.09, 0.36, 0.81):
            for _ in range(8):
                z = _disk_draw(rng, 0.8)
                w = _disk_draw(rng, 0.8)
                series = kernel_series(z, w, B, s)
                closed = kernel_closed(z, w, B, s)
                worst = max(worst, abs(series - closed) / abs(series))
    elapsed = time.monotonic() - start
    _report("C2 kernel-series-vs-closed-form", worst, 1e-8, ok=worst <= 1e-8 and elapsed < 60.0)


def test_c3_kernel_limit():
    B = 1.5
    z, w = 0.5, 0.6  # conj(z) w = 0.3
    lim = kernel_limit(z, w, B)
    gaps = [abs(kernel_closed(z, w, B, s) - lim) / abs(lim) for s in (0.9, 0.99, 0.999)]
    monotone = gaps[0] > gaps[1] > gaps[2]
    _report("C3 reproducing-kernel-limit", gaps[2], 1e-2, ok=monotone and gaps[2] <= 1e-2)


def test_c4_spectral_suite():
    start = time.monotonic()
    worst_closed = 0.0
    for j in range(21):
        worst_closed = max(worst_closed, abs(disk_eigenvalue(j, 1.0, 0.5) - 0.25 ** (j + 1)))
    decreasing = True
    for B in (0.8, 1.0, 1.5, 3.0):
        for R in (0.3, 0.6, 0.9):
            lam = [disk_eigenvalue(j, B, R) for j in range(51)]
            decreasing = decreasing and all(b < a for a, b in zip(lam, lam[1:]))

    n = 1_000_000
    worst_sigma = 0.0
    draws = verify.mc_comparison_draws(np.random.Generator(np.random.PCG64(2028)), 10)
    for i, (j, B, R) in enumerate(draws):
        est, _ = mc_eigenvalue(j, B, R, n, seed=3000 + i)
        exact = disk_eigenvalue(j, B, R)
        sigma = math.sqrt(exact * (1.0 - exact) / n)
        worst_sigma = max(worst_sigma, abs(est - exact) / sigma)
    elapsed = time.monotonic() - start
    _report("C4 spectral-suite", worst_closed, 1e-12,
            ok=worst_closed <= 1e-12 and decreasing and worst_sigma <= 4.0 and elapsed < 60.0)
    print(f"  monotone: {decreasing} | worst MC deviation {worst_sigma:.2f} sigma (limit 4) | {elapsed:.1f}s")


def test_c5_basis_and_operator_suite():
    worst_gram = 0.0
    for B in (0.8, 1.5, 3.0):
        grid = half_line_grid(21, B)
        table = np.stack([laguerre_function(j, B, grid.nodes) for j in range(21)])
        gram = (table * grid.weights) @ table.T
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(21)))))

    worst_residual = max(hamiltonian_residual(j, 1.5) for j in range(6))

    B, R = 1.5, 0.6
    w = 0.3 + 0.2j
    worst_transfer = 0.0
    for k in range(5):
        coeffs = np.zeros(k + 1, dtype=complex)
        coeffs[k] = 1.0
        got = transferred_apply(BergmanFunction(B, coeffs), w, B, R)
        want = disk_eigenvalue(k, B, R) * bergman_basis(k, B, w)
        worst_transfer = max(worst_transfer, abs(got - want))

    B2, R2 = 1.25, 0.6
    rng = np.random.default_rng(2029)
    worst_intertwine = 0.0
    for _ in range(10):
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        point = _disk_draw(rng, 0.6)
        direct = bargmann_transform(spectral_apply(c, ModelParams(B2), LocalizationRadius(R2)), point, B2)
        via_kernel = transferred_apply(BergmanFunction(B2, coefficients=c), point, B2, R2)
        worst_intertwine = max(worst_intertwine, abs(direct - via_kernel))

    ok = (worst_gram <= 1e-8 and worst_residual <= 1e-3
          and worst_transfer <= 1e-7 and worst_intertwine <= 1e-7)
    _report("C5 basis-and-operator-suite",
            max(worst_gram, worst_transfer, worst_intertwine), 1e-7, ok=ok)
    print(f"  gram {worst_gram:.2e} | residual {worst_residual:.2e} | "
          f"transfer {worst_transfer:.2e} | intertwining {worst_intertwine:.2e}")


def test_c6_probabilistic_suite():
    worst_mass = 0.0
    for B, m in ((1.5, 0), (2.5, 1), (3.0, 2)):
        params = ModelParams(B, m)
        nodes, weights = mapped_legendre(400, 0.0, 1.0)
        for j in (0, 1, 4):
            worst_mass = max(worst_mass, abs(float(weights @ landau_density(j, params, nodes)) - 1.0))

    rho = np.linspace(0.0, 0.99, 100)
    reduction = float(np.max(np.abs(
        landau_density(3, ModelParams(1.5, 0), rho) - beta_density(3, 1.5, rho))))
    _report("C6 probabilistic-suite", worst_mass, 1e-9,
            ok=worst_mass <= 1e-9 and reduction <= 1e-12)
    print(f"  lowest-level reduction {reduction:.2e}")


def test_c7_leakage_suite():
    B, R = 1.25, 0.6
    z0 = 0.5 + 0.3j
    bound = leakage_bound(z0, B, R)
    rng = np.random.default_rng(2030)
    dominated = True
    for _ in range(50):
        c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        c /= np.linalg.norm(c)
        dominated = dominated and localized_overlap(z0, B, R, c) <= bound * (1.0 + 1e-12)

    closed0 = abs(leakage_bound(0.0j, 1.5, 0.5) - (1.0 - 0.75 ** 2.0))
    mass = abs(sum(nb_pmf(j, 1.5, 0.4) for j in range(400)) - 1.0)
    mean = abs(sum(j * nb_pmf(j, 1.25, 0.3) for j in range(400)) - 2.0 * 1.25 * 0.3 / 0.7)
    _report("C7 leakage-suite", max(mass, mean), 1e-10,
            ok=dominated and closed0 <= 1e-12 and mass <= 1e-10 and mean <= 1e-10)


def test_c8_reproducing_property():
    worst = 0.0
    for B in (1.0, 1.5):
        grid = disk_grid(64, 64, B)
        w = 0.4 + 0.25j
        kvals = np.asarray([kernel_limit(z, w, B) for z in grid.nodes])
        for k in range(6):
            cvals = np.asarray([bergman_basis(k, B, z) for z in grid.nodes])
            got = complex(grid.weights @ (kvals * cvals) / math.pi)
            worst = max(worst, abs(got - bergman_basis(k, B, w)))
    _report("C8 reproducing-property", worst, 1e-7)


def test_c9_cli_determinism(tmp_path, capsys):
    start = time.monotonic()
    paths = [tmp_path / "report_a.json", tmp_path / "report_b.json"]
    for path in paths:
        code = cli.main(["verify", "--format", "json", "--out", str(path)])
        assert code == 0
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"\nACCEPTANCE C9 cli-determinism: {'PASS' if identical and elapsed < 300 else 'FAIL'} "
              f"(two runs in {elapsed:.1f}s, byte-identical: {identical})")
    assert identical
    assert elapsed < 300.0
