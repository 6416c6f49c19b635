"""toruskit: Fourier-side spectral operators on the n-dimensional torus.

Everything acts diagonally on Fourier coefficients over a symmetric
frequency box: transforms between grid samples and coefficients, multiplier
operators (Helmholtz, resolvent, truncations), Sobolev norms, spectra with
lattice multiplicities, quantitative compact-embedding demos, and a
(Delta + 1) u = f solver with an independent conjugate-gradient oracle.
"""

from .embedding import (
    BoundedSequence,
    InsufficientResolutionError,
    pairwise_l2_distances,
    random_bounded_sequence,
    rellich_extract,
    required_cutoff,
    tail_bound_check,
    tail_profile,
    tail_projection,
)
from .lattice import (
    Frequency,
    enumerate_ball,
    level_multiplicity,
    levels_up_to,
    norm_sq,
    tail_min_norm_sq,
)
from .operators import (
    MultiplierSymbol,
    helmholtz_symbol,
    identity_symbol,
    l2_norm,
    resolvent_symbol,
    resolvent_tail_symbol,
    sobolev_norm_sq,
    truncated_resolvent_symbol,
)
from .solver import (
    ConjugateGradientError,
    SolveReport,
    solve_cg,
    solve_multiplier,
)
from .spectral import (
    LanczosError,
    ResolventCertificate,
    operator_norm_power_iteration,
    resolvent_certificate,
    singular_values,
    spectra,
    truncation_error_exact,
)
from .transform import (
    GridField,
    NonFiniteError,
    SpectralField,
    TorusGrid,
    forward,
    grid_l2_norm,
    inverse,
    naive_forward,
    naive_inverse,
    plancherel_defect,
    random_field,
)

__version__ = "0.1.0"
