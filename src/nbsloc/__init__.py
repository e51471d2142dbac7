"""Phase-space localization via negative binomial coherent states.

Numerics for the localization operator attached to the indicator of a
disk of radius R < 1, quantized against negative binomial states on the
unit disk: its incomplete-Beta eigenvalue spectrum, probabilistic
representations with Monte-Carlo cross-checks, the photon-counting
leakage bound, and the transferred integral kernel on the weighted
Bergman space in series and Appell closed form.
"""

from .errors import (
    AccuracyError,
    ConvergenceError,
    DomainError,
    UnsupportedRepresentationError,
)
from .specfun import (
    HypergeomResult,
    appell_f1,
    appell_f3,
    gauss_2f1,
    jacobi,
    laguerre,
    log_gamma,
    reg_inc_beta,
    sample_beta,
)
from .quadrature import (
    QuadratureGrid,
    disk_grid,
    half_line_grid,
    hamiltonian_residual,
    radial_jacobi_grid,
)
from .states import (
    DiskPoint,
    HalfPlanePoint,
    LocalizationRadius,
    ModelParams,
    affine_coherent_state,
    bergman_basis,
    cayley_inverse,
    disk_kernel,
    halfplane_kernel,
    laguerre_function,
    nb_pmf,
    nbs_expansion,
    nbs_wavefunction,
)
from .locop import (
    RadialSymbol,
    as_function_of_hamiltonian,
    beta_density,
    disk_eigenvalue,
    landau_density,
    landau_eigenvalue,
    leakage_bound,
    localized_overlap,
    mc_eigenvalue,
    radial_eigenvalue,
    spectral_apply,
)
from .bergman import (
    BergmanFunction,
    bargmann_inverse,
    bargmann_transform,
    kernel_closed,
    kernel_limit,
    kernel_series,
    transferred_apply,
)

__version__ = "0.1.0"
