"""Gate fidelity of quantum channels.

Exact fidelity quantities, dimension-only variance and concentration
bounds, seeded Monte-Carlo probes, epsilon-net minimum estimation, and the
constructive demonstration that distinct non-depolarizing channels can
share one gate fidelity function.
"""

from .channels import (
    ChoiMatrix,
    CptpReport,
    QuantumChannel,
    adjoint,
    amplitude_damping,
    channel_from_kraus,
    choi_from_kraus,
    depolarizing,
    identity_channel,
    kraus_from_choi,
    phase_spread_spectrum,
    phase_spread_unitary,
    random_channel,
    unitary_channel,
    unitary_operator_basis,
    validate_cptp,
)
from .fidelity import (
    CONCENTRATION_C,
    LIPSCHITZ_CONSTANT,
    FidelityBoundSet,
    FidelityKernel,
    average_gate_fidelity,
    depolarizing_gate_fidelity,
    fidelity_kernel,
    gate_fidelity_batch,
    symmetric_form,
    uses_symmetric_form,
    variance_bounds,
)
from .linalg import (
    antisym_projector,
    hermitian_eig,
    partial_trace,
    partial_transpose,
    schatten_norm,
    swap_matrix,
    sym_projector,
    unvec,
    vec,
)
from .minimum import (
    MinEstimate,
    NetCoverageError,
    StateNet,
    build_net,
    effective_epsilon,
    effective_minimum,
    net_minimum,
    reference_minimum,
)
from .nonuniq import (
    NonUniqPair,
    PairVerification,
    build_g_operator,
    depolarizing_distance,
    fidelity_equality_conditions,
    max_epsilon,
    perturb_channel,
    verify_pair,
)
from .sampling import (
    DEFAULT_SEED,
    LEVY_C1,
    ConcentrationBound,
    FidelityStats,
    RngSpec,
    convergence_report,
    fidelity_samples,
    haar_states,
    levy_bound,
    mc_fidelity_stats,
)

__version__ = "0.1.0"
