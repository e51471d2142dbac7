import ast
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from nbsloc import bergman, locop, quadrature, specfun, states, verify
from nbsloc.errors import DomainError

# the highest tolerance each check may gate at; a budget may lower one, never raise it
TOLERANCE_CEILINGS = {
    "incbeta_reflection": 5e-13,
    "laguerre_generating_function": 1e-13,
    "gauss_theorem": 5e-13,
    "appell_f1_reductions": 2e-11,
    "radial_rule_beta_integrals": 1e-13,
    "disk_rule_delta_structure": 1e-13,
    "oscillator_eigen_residual": 1e-10,
    "laguerre_orthonormality": 1e-12,
    "state_normalization_overlap": 1e-12,
    "state_quadrature_coefficients": 1e-12,
    "resolution_of_identity": 2e-11,
    "expansion_convergence": 5e-12,
    "halfplane_kernel_bounds": 1e-13,
    "spectrum_bounds_monotone": 5e-15,
    "eigenvalue_norm_identity": 1e-11,
    "matrix_elements_radial_diagonal": 1e-13,
    "probabilistic_densities": 1e-13,
    "mc_spectrum": 4.0,
    "leakage_inequality": 1e-12,
    "kernel_series_closed_equivalence": 5e-11,
    "kernel_limit_monotone": 1e-2,
    "kernel_positivity": 1e-12,
    "reproducing_property": 2e-11,
    "transfer_spectral_action": 1e-11,
    "intertwining": 1e-10,
}


class TestCheckRegistry:
    def test_names_exposed(self):
        names = verify.check_names()
        assert "laguerre_orthonormality" in names
        assert "kernel_series_closed_equivalence" in names

    def test_unknown_check(self):
        with pytest.raises(DomainError):
            verify.run_check("nope")

    def test_result_names_match_registry(self):
        for name in ("incbeta_reflection", "spectrum_bounds_monotone", "intertwining"):
            assert verify.run_check(name).name == name

    def test_verify_reads_no_private_library_name(self):
        # the checks hold the library to account through its public names: a private one (bergman._x, ...)
        # could change with the code it is meant to check
        tree = ast.parse(pathlib.Path(verify.__file__).read_text())
        modules = {"bergman", "locop", "quadrature", "specfun", "states"}
        private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules and node.attr.startswith("_")]
        private += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names if alias.name.startswith("_")]
        assert not private


class TestToleranceCeilings:
    def test_no_check_gates_above_its_ceiling(self):
        results = verify.run_all()
        assert [result.name for result in results] == list(TOLERANCE_CEILINGS)
        for result in results:
            assert result.passed and result.tolerance <= TOLERANCE_CEILINGS[result.name], result


# one verify pass in a fresh interpreter: its Beta draws (through locop.sample_beta, the name locop calls) and
# its Gauss-Jacobi builds by (n, alpha), each a miss of the rule cache seen at its call
WORK_OF_A_PASS = """
import collections, json
from nbsloc import locop, quadrature, specfun, verify
cached, builds, drawn = quadrature.gauss_jacobi, collections.Counter(), []
def counted_rule(n, alpha):
    before = cached.cache_info().misses
    rule = cached(n, alpha)
    builds[f"{n}, {alpha}"] += cached.cache_info().misses - before
    return rule
def counted_draws(a, b, n, rng):
    drawn.append(n)
    return specfun.sample_beta(a, b, n, rng)
quadrature.gauss_jacobi, locop.sample_beta = counted_rule, counted_draws
passed = all(result.passed for result in verify.run_all())
print(json.dumps({"passed": passed, "draws": sum(drawn), "builds": builds, "misses": cached.cache_info().misses}))
"""


class TestWorkBudget:
    def test_a_pass_draws_each_stream_once_and_builds_each_rule_once(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", WORK_OF_A_PASS], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, timeout=120).stdout
        work = json.loads(out)
        assert work["passed"]
        # four mc_eigenvalue streams of 250,000, each drawn once
        assert work["draws"] == 1_000_000
        # every build went through the counter, none twice; the radial reference is radial_eigenvalue's first
        # rule, and its walk stops at 48 nodes, so no pass builds the 160-node rule it once held fixed
        assert sum(work["builds"].values()) == work["misses"]
        assert max(work["builds"].values()) == 1, work["builds"]
        assert not [key for key in work["builds"] if key.startswith("200,")]
        assert f"{locop.RADIAL_NODES[0]}, 0.5" in work["builds"]
        assert "160, 0.5" not in work["builds"] and f"{locop.RADIAL_NODES[2]}, 0.5" not in work["builds"]


def _scale_everywhere(monkeypatch, home, name, factor):
    """Replace home.name, in home and wherever an nbsloc module holds it, by its result times ``factor``.

    A HypergeomResult keeps its term count and has its value scaled; a BergmanFunction its coefficients.
    """
    exact = getattr(home, name)

    def perturbed(*args):
        result = exact(*args)
        if isinstance(result, specfun.HypergeomResult):
            return dataclasses.replace(result, value=result.value * factor)
        if isinstance(result, bergman.BergmanFunction):
            return dataclasses.replace(result, coefficients=result.coefficients * factor)
        return result * factor

    for holder in [home] + [m for key, m in sys.modules.items() if key.startswith("nbsloc.")]:
        if getattr(holder, name, None) is exact:
            monkeypatch.setattr(holder, name, perturbed)


class TestFaultInjection:
    def test_biased_draws_fail_mc_spectrum(self, monkeypatch):
        # Beta(a + 1, b) draws sit to the right of the eigenvalue's law: far past 4 sigma at 250,000 draws
        assert verify.run_check("mc_spectrum").passed
        exact = locop.sample_beta
        monkeypatch.setattr(locop, "sample_beta", lambda a, b, n, rng: exact(a + 1.0, b, n, rng))
        broken = verify.run_check("mc_spectrum")
        assert not broken.passed and broken.max_error > 4.0

    def test_mc_spectrum_reads_the_four_mc_eigenvalue_calls(self):
        # max_error is the largest |z| of the four calls and the joint clause reads the sum of their z^2, bit for bit
        result = verify.run_check("mc_spectrum")
        n, z = 250_000, []
        for i, (j, B, R) in enumerate(verify.mc_comparison_draws(verify._rng(606), 4)):
            exact = locop.disk_eigenvalue(j, B, R)
            z.append((locop.mc_eigenvalue(j, B, R, n, 900 + i)[0] - exact) / math.sqrt(exact * (1.0 - exact) / n))
        assert result.max_error == max(map(abs, z)) == 0.4236112936963384
        assert result.detail == f"sum of squared z-scores {sum(v * v for v in z):.3f} (chi-square 4 dof, tol 23.5)"

    @pytest.mark.parametrize("shift", [3.0, -3.0], ids=["high", "low"])
    def test_common_3_sigma_bias_fails_mc_spectrum_jointly(self, shift, monkeypatch):
        # every stream's estimate moved by 3 of its standard errors passes each 4-sigma gate, but the
        # squared z-scores add up past the chi-square point: 30.6 high and 42.4 low, against 23.5
        exact = locop.mc_eigenvalue

        def biased(j, B, R, n_samples, seed):
            est, se = exact(j, B, R, n_samples, seed)
            return est + shift * se, se

        monkeypatch.setattr(locop, "mc_eigenvalue", biased)
        broken = verify.run_check("mc_spectrum")
        assert not broken.passed and 3.0 < broken.max_error < 4.0

    @pytest.mark.parametrize("factor", [1.0 + 1e-9, 1.0 - 1e-9], ids=["high", "low"])
    def test_radial_reference_off_by_1e_9_fails(self, factor, monkeypatch):
        # the reference integral times 1 +- 1e-9 moves the 12-node error to 1.2e-10, past its 3e-13 gate; 1e-9 low,
        # the 6-node error grew more, so a gate comparing the two errors passed it
        clean = verify.run_check("radial_rule_beta_integrals")
        assert clean.passed
        exact = quadrature.radial_jacobi_grid

        def perturbed(n, B):
            grid = exact(n, B)
            if n != locop.RADIAL_NODES[0]:
                return grid
            return quadrature.QuadratureGrid(grid.nodes, grid.weights * factor)

        monkeypatch.setattr(quadrature, "radial_jacobi_grid", perturbed)
        broken = verify.run_check("radial_rule_beta_integrals")
        assert not broken.passed and broken.max_error == clean.max_error

    def test_eigenvalue_table_off_by_1e_12_fails_spectrum(self, monkeypatch):
        # every table entry but the B = 1 ones (b = 1) times 1 + 1e-12: the closed form and max_error stay, and the
        # oscillator function, read from the table, leaves the continued fraction by 1e-12, past its 3e-13 gate
        clean = verify.run_check("spectrum_bounds_monotone")
        assert clean.passed
        exact = specfun.reg_inc_beta_table

        def perturbed(x, n, b):
            table = exact(x, n, b)
            return table if b == 1.0 else table * (1.0 + 1e-12)

        for module in [m for key, m in sys.modules.items() if key.startswith("nbsloc.")]:
            if getattr(module, "reg_inc_beta_table", None) is exact:
                monkeypatch.setattr(module, "reg_inc_beta_table", perturbed)
        broken = verify.run_check("spectrum_bounds_monotone")
        assert not broken.passed and broken.max_error == clean.max_error

    @pytest.mark.parametrize("home, name, check", [
        (specfun, "laguerre", "laguerre_generating_function"),
        (states, "bergman_basis", "disk_rule_delta_structure"),
        (states, "bergman_basis", "resolution_of_identity"),
        (states, "nbs_wavefunction", "expansion_convergence"),
        (locop, "landau_density", "probabilistic_densities"),
        (specfun, "reg_inc_beta_table", "leakage_inequality"),
        (specfun, "inc_beta_steps", "leakage_inequality"),
        (locop, "localized_overlap", "leakage_inequality"),
        (locop, "spectral_apply", "leakage_inequality"),
        (locop, "leakage_bound", "leakage_inequality"),
        (locop, "disk_eigenvalue", "spectrum_bounds_monotone"),
        (locop, "disk_eigenvalue", "eigenvalue_norm_identity"),
        (bergman, "kernel_limit", "reproducing_property"),
        (bergman, "_angular_coefficients", "reproducing_property"),
        (bergman.BergmanFunction, "project", "reproducing_property"),
        (specfun, "appell_f1", "appell_f1_reductions"),
        (specfun, "gauss_2f1", "gauss_theorem"),
        (bergman, "kernel_series", "kernel_series_closed_equivalence"),
        (bergman, "kernel_series", "transfer_spectral_action"),
        (bergman, "kernel_series", "intertwining"),
        (bergman, "transferred_apply", "transfer_spectral_action"),
    ])
    def test_relative_error_of_1e_9_fails_a_check(self, home, name, check, monkeypatch):
        # the function times 1 + 1e-9, in its home and every nbsloc module that holds it: where verify and the
        # library read it
        assert verify.run_check(check).passed
        _scale_everywhere(monkeypatch, home, name, 1.0 + 1e-9)
        broken = verify.run_check(check)
        assert not broken.passed and broken.max_error > 1e-10

    @pytest.mark.parametrize("home, name", [(bergman, "_angular_coefficients"), (bergman.BergmanFunction, "project")])
    def test_projection_low_by_1e_9_fails_reproducing_property(self, home, name, monkeypatch):
        _scale_everywhere(monkeypatch, home, name, 1.0 - 1e-9)
        broken = verify.run_check("reproducing_property")
        assert not broken.passed and broken.max_error > 1e-10

    @pytest.mark.parametrize("home, name, factor, check, old_gate", [
        (states, "halfplane_kernel", 1.0 + 5e-13, "halfplane_kernel_bounds", 1e-12),  # the diagonal reads 5e-13
        (bergman, "kernel_series", 1.0 + 2e-11j, "kernel_positivity", 1e-10),  # Hermitian defect 4e-11 |K|
        (specfun, "reg_inc_beta", 1.0 + 7e-13, "incbeta_reflection", 1e-12),  # the two values add to 1: reads 7e-13
    ])
    def test_budgeted_gate_fails_what_the_old_gate_passed(self, home, name, factor, check, old_gate, monkeypatch):
        exact = getattr(home, name)
        for module in [m for key, m in sys.modules.items() if key.startswith("nbsloc.")]:
            if getattr(module, name, None) is exact:
                monkeypatch.setattr(module, name, lambda *args: exact(*args) * factor)
        broken = verify.run_check(check)
        assert not broken.passed and broken.max_error <= old_gate, broken

    @pytest.mark.parametrize("delta", [1e-3, 1e-9])
    def test_perturbed_laguerre_function_fails_orthonormality(self, delta, monkeypatch):
        # a factor 1 + delta moves the Gram diagonal by 2 delta; at 1e-9 that was under the old 1e-8 gate
        clean = verify.run_check("laguerre_orthonormality")
        assert clean.passed
        exact = states.laguerre_function  # the name verify reads
        monkeypatch.setattr(states, "laguerre_function", lambda j, B, xi: exact(j, B, xi) * (1.0 + delta))
        try:
            broken = verify.run_check("laguerre_orthonormality")
        finally:
            monkeypatch.undo()
        assert not broken.passed
        assert broken.max_error > delta
        # and the undo really restores the exact function
        assert verify.run_check("laguerre_orthonormality").passed

    @pytest.mark.parametrize("name", ["transfer_spectral_action", "intertwining"])
    def test_transfer_integral_does_not_call_transferred_apply(self, name, monkeypatch):
        # the integral side integrates the kernel series itself, so it holds the apply to account
        exact_apply, exact_integral, inside = bergman.transferred_apply, verify._transfer_integral, []

        def apply(*args):
            assert not inside, "transferred_apply called by _transfer_integral"
            return exact_apply(*args)

        def integral(*args):
            inside.append(True)
            try:
                return exact_integral(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(bergman, "transferred_apply", apply)
        monkeypatch.setattr(verify, "_transfer_integral", integral)
        result = verify.run_check(name)
        assert result.passed and result.max_error <= 1e-13

    @pytest.mark.parametrize("name", ["transfer_spectral_action", "intertwining"])
    def test_perturbed_kernel_series_fails_transfer_checks(self, name, monkeypatch):
        exact = bergman.kernel_series  # the name verify reads
        monkeypatch.setattr(bergman, "kernel_series", lambda z, w, B, s: exact(z, w, B, s) * (1.0 + 1e-3))
        broken = verify.run_check(name)
        assert not broken.passed and broken.max_error > 1e-5
