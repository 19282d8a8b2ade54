"""hopfsim: Hopf-insulator band topology and a simulated tomography experiment."""

from .model import HopfParams, bloch_ground, ground_state, hopf_f, map_g, u_of_k
from .bzgrid import MeshSpec, StateField, coverage_fraction, sample_state_field
from .invariants import berry_connection, berry_curvature, chern_number, hopf_index, scaling_study
from .preimage import (
    Polyline,
    embed_r3,
    epsilon_neighborhood,
    link_matrix,
    linking_number_t3,
    preimage_contours,
    refined_preimage,
)
from .adiabatic import build_schedule, evolve, mle_tomography, run_campaign, simulate_measurements

__version__ = "0.1.0"
