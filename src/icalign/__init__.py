"""Lattice-coded interference alignment on the symmetric K-user Gaussian channel.

Subpackages: codes and lattices (zp_codes), shaping and exact decoding
(lattice_geometry), regime thresholds (regime), the Gaussian Monte Carlo
chain (gaussian_sim), the bit-level deterministic channel (det_channel),
and the experiment harness / CLI (cli_harness).
"""

from .det_channel import (
    DetChannelConfig,
    RegimeViolation,
    det_capacity_check,
    det_decode,
    level_diagram,
)
from .gaussian_sim import (
    ChannelConfig,
    channel_output,
    decode_interference_sum,
    lattice_only_decode,
    loeliger_error_bound,
    run_monte_carlo,
    two_stage_decode,
)
from .lattice_geometry import (
    ShapingShell,
    build_codebook,
    codebook_csv,
    find_shift,
    message_codebook,
    nearest_codeword,
    nearest_lattice_point,
)
from .regime import (
    alignment_threshold,
    classify,
    interference_free_capacity,
    joint_decode_threshold,
    rate_constraints,
    theorem2_rate,
    two_user_threshold,
)
from .zp_codes import (
    ConstructionALattice,
    EnumerationTooLarge,
    LinearCode,
    design_lattice,
    enumerate_codewords,
    fundamental_volume,
    is_lattice_point,
    lattice_coords,
    lattice_from_text,
    lattice_to_text,
    same_lattice_point,
    sample_code,
)

__version__ = "0.1.0"
