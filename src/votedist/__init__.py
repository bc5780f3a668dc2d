"""Distortion of two-candidate spatial elections with distance-based abstention.

Voters on a line (or in any metric space) prefer the nearer of two
candidates and vote with a probability driven by their relative distances.
The package computes exact win probabilities and expected distortion, bounds
the worst case over all elections, and certifies the voter-displacement
reductions those bounds rest on.
"""

from .displace import (
    CanonicalForm,
    CertificateError,
    Displacement,
    ValidityCertificate,
    canonicalize_expected_distortion,
    canonicalize_expected_winner,
    certify_expected_displacement,
    certify_winner_displacement,
    map_a_to_b,
    map_c_to_d,
    merge_d_geometric,
    merge_same_region,
    move_a_to_zero,
    move_bc_pair,
)
from .documents import (
    DocumentError,
    ElectionDocument,
    parse_election,
    serialize_election,
)
from .exact import (
    WinProbabilities,
    enumerate_oracle,
    expected_distortion,
    vote_pmf,
    win_probabilities,
)
from .metric import (
    LineReduction,
    MetricElection,
    distance_ratio,
    reduce_to_line,
)
from .model import (
    INDIFFERENT,
    LEFT,
    RIGHT,
    TIE,
    DistortionReport,
    LineElection,
    VoterProfile,
    expected_votes,
    expected_winner,
    mirror,
    participation_probability,
    profile,
    region_of,
    social_costs,
    voter_arrays,
    winner_distortion,
)
from .montecarlo import McConfig, McEstimate, simulate
from .worstcase import (
    BoundCheck,
    WorstCaseSolution,
    binding_xd,
    generate_gate_elections,
    solve_worst_case,
    solve_worst_case_margin,
    sweep_beta,
    sweep_csv,
    two_point_distortion,
    verify_distortion_bound,
    vote_count_threshold,
    witness_election,
)

__version__ = "0.1.0"
