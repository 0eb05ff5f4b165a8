"""zetalab: a numerics laboratory for Epstein zeta functions, Eisenstein
series limit formulas, an automorphic Schrodinger operator, and
critical-line spectral experiments on the modular surface."""

from . import acceptance, eisenstein, epstein, hamiltonian, lattice, specfun, spectral

__version__ = "0.1.0"
