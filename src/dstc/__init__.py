"""Distributed space-time codes for amplify-and-forward relay networks with phase-only CSI.

Construction of admissible code families, mechanical verification of the
relay-channel design constraints, rank/determinant diversity analysis with
lattice rotations, Monte Carlo simulation of the two-phase protocol with
exact ML and group-ML decoding, and distribution checks for the effective
two-product channel.
"""

__version__ = "0.1.0"

from .code_library import (
    LinearDispersionCode,
    RelayMatrixPair,
    alamouti,
    block_diagonal_extend,
    clifford_4x4,
    cuw_ssd,
    from_bundle,
    gciod,
    load_bundle,
    normalize_unitary_weights,
    relay_pairs,
    repetition_control,
    save_bundle,
    scalar_cod,
    scaled_relay_pairs,
    square_cod,
    to_bundle,
)
from .constraint_checker import (
    ConstraintReport,
    StructureReport,
    c1q_zero_diagonal,
    check_cuw_relations,
    check_power,
    check_structure,
    diagonal_gram,
    dispersion_matrix,
    gram_diagonal,
    random_compliant_code,
    verify_code,
)
from .diversity_analyzer import (
    Constellation,
    PrecodingSpec,
    analyze_codebook,
    apply_precoding,
    enumerate_codebook,
    min_det_over_differences,
    min_rank_group_differences,
    min_rank_over_differences,
    optimize_rotation,
)
from .dmg_analysis import ChannelStatSample, channel_stat_samples, empirical_outage, ks_two_sample
from .relay_channel_sim import (
    BerPoint,
    ChannelRealization,
    PowerAllocation,
    ReceivedSignal,
    SimConfig,
    dstc_matrix,
    estimate_diversity,
    group_ml_decode,
    ml_decode,
    monte_carlo_ber,
    noise_covariance_real,
    real_response_matrix,
    sample_channel,
    simulate_transmission,
)
