import pytest

from nbsloc import bergman, states, verify
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
