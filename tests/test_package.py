"""The package's public surface: each module's ``__all__`` lists its public names once, and the package re-exports them."""

import os
import pathlib
import subprocess
import sys

import pytest

import nbsloc
from nbsloc import bergman, errors, locop, quadrature, specfun, states, verify

# what ``import nbsloc`` exposed while the package listed its names by hand, each with its home module
PACKAGE_NAMES = {
    errors: ["AccuracyError", "ConvergenceError", "DomainError"],
    specfun: ["HypergeomResult", "appell_f1", "appell_f3", "gauss_2f1", "jacobi", "laguerre", "log_gamma",
              "reg_inc_beta", "sample_beta"],
    quadrature: ["QuadratureGrid", "disk_grid", "half_line_grid", "hamiltonian_residual", "radial_jacobi_grid"],
    states: ["LocalizationRadius", "ModelParams", "affine_coherent_state", "bergman_basis", "cayley_inverse",
             "disk_kernel", "halfplane_kernel", "laguerre_function", "nb_pmf", "nbs_expansion", "nbs_wavefunction"],
    locop: ["as_function_of_hamiltonian", "beta_density", "disk_eigenvalue", "landau_density", "landau_eigenvalue",
            "leakage_bound", "localized_overlap", "mc_eigenvalue", "radial_eigenvalue", "spectral_apply"],
    bergman: ["BergmanFunction", "bargmann_inverse", "bargmann_transform", "kernel_closed", "kernel_limit",
              "kernel_series", "transferred_apply"],
}

# the verify battery, in the order ``run_all`` and the CLI report it
CHECK_NAMES = [
    "incbeta_reflection", "laguerre_generating_function", "gauss_theorem", "appell_f1_reductions",
    "radial_rule_beta_integrals", "disk_rule_delta_structure", "oscillator_eigen_residual", "laguerre_orthonormality",
    "state_normalization_overlap", "state_quadrature_coefficients", "resolution_of_identity", "expansion_convergence",
    "halfplane_kernel_bounds", "spectrum_bounds_monotone", "eigenvalue_norm_identity",
    "matrix_elements_radial_diagonal", "probabilistic_densities", "mc_spectrum", "leakage_inequality",
    "kernel_series_closed_equivalence", "kernel_limit_monotone", "kernel_positivity", "reproducing_property",
    "transfer_spectral_action", "intertwining",
]


class TestPublicSurface:
    def test_every_name_the_package_exposed_is_still_its_home_modules_object(self):
        assert sum(map(len, PACKAGE_NAMES.values())) == 45
        for home, names in PACKAGE_NAMES.items():
            for name in names:
                assert getattr(nbsloc, name) is getattr(home, name), name

    @pytest.mark.parametrize("module", [specfun, quadrature, states, locop, bergman, verify])
    def test_each_name_in_all_is_public_once_and_the_package_reexports_it(self, module):
        assert len(module.__all__) == len(set(module.__all__))
        for name in module.__all__:
            assert not name.startswith("_") and hasattr(module, name), name
            if module is not verify:
                assert getattr(nbsloc, name) is getattr(module, name), name

    def test_a_name_is_listed_by_its_home_module_alone(self):
        # states imports specfun's check_strength, but only specfun lists it
        homes = {}
        for module in (specfun, quadrature, states, locop, bergman):
            for name in module.__all__:
                assert name not in homes, f"{name} is listed by {homes.get(name)} and {module.__name__}"
                homes[name] = module.__name__

    def test_importing_the_package_loads_neither_verify_nor_the_cli(self):
        code = "import sys, nbsloc; print(sorted({'nbsloc.verify', 'nbsloc.cli'} & set(sys.modules)))"
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, timeout=60).stdout
        assert out.strip() == "[]"


class TestCheckRegistry:
    def test_check_names_keep_their_order(self):
        assert verify.check_names() == CHECK_NAMES

    def test_each_check_function_is_named_as_its_check(self):
        for name in CHECK_NAMES:
            assert getattr(verify, name).__name__ == name
