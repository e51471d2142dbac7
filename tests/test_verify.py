import dataclasses
import sys

import pytest

from nbsloc import bergman, locop, specfun, states, verify
from nbsloc.errors import DomainError

# the highest tolerance each check may gate at; a budget may lower one, never raise it
TOLERANCE_CEILINGS = {
    "incbeta_reflection": 1e-12,
    "laguerre_generating_function": 1e-13,
    "gauss_theorem": 1e-10,
    "appell_f1_reductions": 2e-11,
    "radial_rule_beta_integrals": 1e-13,
    "disk_rule_delta_structure": 1e-13,
    "oscillator_eigen_residual": 1e-10,
    "laguerre_orthonormality": 1e-12,
    "state_normalization_overlap": 1e-12,
    "state_quadrature_coefficients": 1e-12,
    "resolution_of_identity": 2e-11,
    "expansion_convergence": 5e-12,
    "halfplane_kernel_bounds": 1e-12,
    "spectrum_bounds_monotone": 1e-12,
    "eigenvalue_norm_identity": 1e-11,
    "matrix_elements_radial_diagonal": 1e-13,
    "probabilistic_densities": 1e-13,
    "mc_spectrum": 4.0,
    "leakage_inequality": 1e-10,
    "kernel_series_closed_equivalence": 5e-11,
    "kernel_limit_monotone": 1e-2,
    "kernel_positivity": 1e-10,
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


class TestToleranceCeilings:
    def test_no_check_gates_above_its_ceiling(self):
        results = verify.run_all()
        assert [result.name for result in results] == list(TOLERANCE_CEILINGS)
        for result in results:
            assert result.passed and result.tolerance <= TOLERANCE_CEILINGS[result.name], result


class TestFaultInjection:
    @pytest.mark.parametrize("home, name, check", [
        (specfun, "laguerre", "laguerre_generating_function"),
        (states, "bergman_basis", "disk_rule_delta_structure"),
        (states, "bergman_basis", "resolution_of_identity"),
        (states, "nbs_wavefunction", "expansion_convergence"),
        (locop, "landau_density", "probabilistic_densities"),
        (specfun, "reg_inc_beta_table", "leakage_inequality"),
        (locop, "disk_eigenvalue", "spectrum_bounds_monotone"),
        (locop, "disk_eigenvalue", "eigenvalue_norm_identity"),
        (bergman, "kernel_limit", "reproducing_property"),
        (specfun, "appell_f1", "appell_f1_reductions"),
        (bergman, "kernel_series", "kernel_series_closed_equivalence"),
        (bergman, "kernel_series", "transfer_spectral_action"),
        (bergman, "kernel_series", "intertwining"),
    ])
    def test_relative_error_of_1e_9_fails_a_check(self, home, name, check, monkeypatch):
        # the function times 1 + 1e-9, in every nbsloc module that holds it: where verify and the library read it;
        # a HypergeomResult keeps its term count and has its value scaled
        assert verify.run_check(check).passed
        exact = getattr(home, name)

        def perturbed(*args):
            result = exact(*args)
            if isinstance(result, specfun.HypergeomResult):
                return dataclasses.replace(result, value=result.value * (1.0 + 1e-9))
            return result * (1.0 + 1e-9)

        for module in [m for key, m in sys.modules.items() if key.startswith("nbsloc.")]:
            if getattr(module, name, None) is exact:
                monkeypatch.setattr(module, name, perturbed)
        broken = verify.run_check(check)
        assert not broken.passed and broken.max_error > 1e-10

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
    def test_transfer_checks_do_not_call_transferred_apply(self, name, monkeypatch):
        # the checks integrate the kernel series themselves, so they still hold the apply to account
        def refuse(*args):
            raise AssertionError("transferred_apply called")

        monkeypatch.setattr(bergman, "transferred_apply", refuse)
        result = verify.run_check(name)
        assert result.passed and result.max_error <= 1e-13

    @pytest.mark.parametrize("name", ["transfer_spectral_action", "intertwining"])
    def test_perturbed_kernel_series_fails_transfer_checks(self, name, monkeypatch):
        exact = bergman.kernel_series  # the name verify reads
        monkeypatch.setattr(bergman, "kernel_series", lambda z, w, B, s: exact(z, w, B, s) * (1.0 + 1e-3))
        broken = verify.run_check(name)
        assert not broken.passed and broken.max_error > 1e-5
