import pytest

from nbsloc import states, verify
from nbsloc.errors import DomainError


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


class TestFaultInjection:
    def test_perturbed_laguerre_function_fails_orthonormality(self, monkeypatch):
        clean = verify.run_check("laguerre_orthonormality")
        assert clean.passed
        exact = states.laguerre_function  # the name verify reads
        monkeypatch.setattr(states, "laguerre_function", lambda j, B, xi: exact(j, B, xi) * (1.0 + 1e-3))
        try:
            broken = verify.run_check("laguerre_orthonormality")
        finally:
            monkeypatch.undo()
        assert not broken.passed
        assert broken.max_error > 1e-4
        # and the undo really restores the exact function
        assert verify.run_check("laguerre_orthonormality").passed
