"""Closed-form Max-Det BD-RIS design, rate bounds, q-stem circuit synthesis,
and a seeded Monte-Carlo experiment harness."""

from .channel import (
    ChannelParams,
    ChannelSet,
    Geometry,
    LinkBudget,
    build_channel_set,
    derive_seed,
    gen_rayleigh,
    path_loss,
    reference_snr_db,
)
from .designs import (
    BlockAlignment,
    DegenerateChannelError,
    PhaseCorrection,
    ScatteringMatrix,
    phase_correction,
    random_symmetric_unitary,
    rotated_family,
    solve_maxdet,
    unitary_baseline,
    verify_block_structure,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    emit_csv,
    load_config,
    m_sweep_summary,
    parse_config,
    run_experiment,
)
from .linalg import (
    CompactSVD,
    PrincipalAngleDecomposition,
    compact_svd,
    log_majorizes,
    orthonormal_complement,
    principal_angles,
)
from .metrics import (
    abs_det,
    achievable_rate,
    d_max,
    equivalent_channel,
    error_term_bound,
    evaluate_channel,
    evaluate_design,
    rate_decomposition,
    rate_gap_bound,
    ris_channel,
)
from .qstem import (
    CayleySingularityError,
    SusceptanceMatrix,
    b_to_theta,
    cayley_with_phase_fallback,
    complete_to_unitary,
    element_count,
    fully_connected_channel,
    qstem_channel,
    synthesize_qstem,
    theta_to_b,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
