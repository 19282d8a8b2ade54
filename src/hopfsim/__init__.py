"""hopfsim: Hopf-insulator band topology and a simulated tomography experiment.

The public names below live in the package's modules, which are imported on
first use (PEP 562): ``import hopfsim`` loads none of the engines, and
``hopfsim.link_matrix`` imports ``hopfsim.preimage`` when it is first read.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    **dict.fromkeys(
        ["HopfParams", "bloch_ground", "ground_state", "hopf_f", "map_g", "u_of_k"], "model"),
    **dict.fromkeys(
        ["MeshSpec", "StateField", "coverage_fraction", "sample_state_field"], "bzgrid"),
    **dict.fromkeys(
        ["berry_connection", "berry_curvature", "chern_number", "hopf_index",
         "scaling_study"], "invariants"),
    **dict.fromkeys(
        ["Polyline", "embed_r3", "epsilon_neighborhood", "link_matrix", "linking_number_t3",
         "preimage_contours", "refined_preimage"], "preimage"),
    **dict.fromkeys(
        ["build_schedule", "evolve", "mle_tomography", "run_campaign",
         "simulate_measurements"], "adiabatic"),
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
