"""zetalab: a numerics laboratory for Epstein zeta functions, Eisenstein
series limit formulas, an automorphic Schrodinger operator, and
critical-line spectral experiments on the modular surface."""

from . import acceptance, eisenstein, epstein, hamiltonian, lattice, specfun, spectral
from .eisenstein import (
    c_scattering,
    e1_star,
    eisenstein_sl2,
    eisenstein_slr,
    heegner_zeta,
    kronecker_limit_check,
    terras_limit,
)
from .epstein import (
    EvalResult,
    LaurentExpansion,
    check_functional_equation,
    epstein_laurent,
    epstein_residue,
    epstein_zeta,
)
from .hamiltonian import (
    check_laplace_e1star,
    commutator_check,
    fd_laplacian,
    grad_e1_star,
    ground_state_residual,
    potential_q,
)
from .lattice import enumerate_vectors, gram_of_point, normalize_det, reduce_sl2
from .specfun import (
    ArgTrack,
    bessel_K,
    dedekind_eta,
    dirichlet_L,
    log_gamma,
    psi_arg_xi,
    riemann_zeta,
    upper_incomplete_gamma,
    xi_completed,
)
from .spectral import (
    ContourConfig,
    SpectralRoot,
    exotic_roots,
    greens_constant_term_check,
    J_function,
    repulsion_experiment,
    spacing_statistics,
)

__version__ = "0.1.0"
