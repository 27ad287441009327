"""Entanglement witnesses for depolarized bipartite states and noisy twin
beams, local measurement quora, and simulated homodyne tomography."""

from .linalg import (
    ConvergenceError,
    SvdResult,
    complex_svd,
)
from .states import (
    BipartiteDensity,
    maximally_entangled_operator,
    random_state_operator,
    schmidt_operator,
)
from .witness_finite import (
    QuorumDecomposition,
    QuorumTerm,
    depolarized_expectation,
    depolarized_state,
    detection_threshold,
    evaluate_witness,
    min_eigvec_operator,
    min_pt_eigenvalue,
    quorum_decompose,
)
from .specfn import oscillator_psi_table, pattern_functions
from .cv import (
    DifferenceBlocks,
    FockTruncation,
    GaussThreshold,
    TruncationError,
    cv_witness,
    gauss_separability_threshold,
    gauss_witness_expectation,
    phase_witness_expectation,
    sum_mode_variance,
    twb_state,
    twin_beam_blocks,
)
from .tomography import (
    HomodyneBatch,
    McEstimate,
    mc_estimate_values,
    mc_estimate_witness,
    sample_homodyne,
    witness_kernel,
)

__version__ = "0.1.0"
