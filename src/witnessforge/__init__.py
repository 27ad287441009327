"""Entanglement witnesses for depolarized bipartite states and noisy twin
beams, local measurement quora, and simulated homodyne tomography."""

from .linalg import (
    ConvergenceError,
    SvdResult,
    complex_svd,
    hermitian_eig,
    hs_inner,
    kron,
    partial_transpose,
    unvectorize,
    vectorize,
)
from .states import (
    BipartiteDensity,
    maximally_entangled_operator,
    random_product_state,
    random_state_operator,
    schmidt_operator,
)
from .witness_finite import (
    QuorumDecomposition,
    QuorumTerm,
    build_witness,
    depolarized_expectation,
    depolarized_state,
    detection_threshold,
    evaluate_witness,
    min_eigvec_operator,
    min_pt_eigenvalue,
    quorum_decompose,
)
from .specfn import f00, f01, f11, oscillator_psi_table, pattern_functions
from .cv import (
    DifferenceBlocks,
    FockTruncation,
    GaussThreshold,
    TruncationError,
    cv_witness,
    gauss_separability_threshold,
    gauss_witness_expectation,
    phase_noisy_twb,
    phase_witness_expectation,
    pt_eigenvalue_diagonal,
    pt_eigenvalue_pair,
    pt_min_eigenvalue,
    pt_spectrum_analytic,
    sum_mode_variance,
    twb_mean_photons,
    twb_state,
    twin_beam_blocks,
)
from .tomography import (
    HomodyneBatch,
    McEstimate,
    mc_estimate_witness,
    sample_homodyne,
    sample_twin_beam,
    witness_kernel,
)

__version__ = "0.1.0"
