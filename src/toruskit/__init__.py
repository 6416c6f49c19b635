"""toruskit: Fourier-side spectral operators on the n-dimensional torus.

Everything acts diagonally on Fourier coefficients over a symmetric
frequency box: transforms between grid samples and coefficients, multiplier
operators (Laplacian, resolvent, truncations), Sobolev norms, spectra with
lattice multiplicities, quantitative compact-embedding demos, and a
(Delta + 1) u = f solver with an independent conjugate-gradient oracle.
"""

from .embedding import (
    BoundedSequence,
    InsufficientResolutionError,
    ball_projection,
    pairwise_l2_distances,
    random_bounded_sequence,
    rellich_extract,
    required_cutoff,
    tail_bound_check,
    tail_projection,
)
from .lattice import (
    Frequency,
    LatticeBall,
    enumerate_ball,
    level_multiplicity,
    levels_up_to,
    norm_sq,
    tail_min_norm_sq,
)
from .operators import (
    MultiplierSymbol,
    apply_multiplier,
    helmholtz_symbol,
    identity_symbol,
    l2_norm,
    laplacian,
    laplacian_symbol,
    resolvent,
    resolvent_symbol,
    resolvent_tail_symbol,
    sobolev_norm_sq,
    truncated_resolvent,
    truncated_resolvent_symbol,
)
from .solver import (
    ConjugateGradientError,
    SolveReport,
    random_field,
    solve_cg,
    solve_multiplier,
)
from .spectral import (
    PowerIterationError,
    SpectrumReport,
    eigenpair_residuals,
    lambda_to_mu,
    laplacian_spectrum,
    mu_to_lambda,
    operator_norm_power_iteration,
    resolvent_spectrum,
    singular_values,
    truncation_error_exact,
    verify_eigenpair,
)
from .transform import (
    GridField,
    SpectralField,
    TorusGrid,
    field_from_doc,
    field_to_doc,
    forward,
    grid_l2_norm,
    inverse,
    naive_forward,
    naive_inverse,
    plancherel_defect,
)

__version__ = "0.1.0"
