"""Argument rules: each engine refuses a value outside its range with
UsageError, which is both a HopfError and a ValueError."""

import re

import numpy as np
import pytest

from hopfsim import adiabatic, invariants, model, preimage
from hopfsim.bzgrid import MeshSpec, sample_state_field
from hopfsim.errors import HopfError, UsageError
from hopfsim.model import HopfParams

H2 = HopfParams(2.0)


def _field():
    return sample_state_field(H2, MeshSpec(4))


@pytest.mark.parametrize("call, message", [
    (lambda: HopfParams(np.nan), "h must be finite, got nan"),
    (lambda: HopfParams(-1e76), "|h| must be <= 1e+75, got -1e+76"),
    (lambda: MeshSpec(3), "mesh needs n >= 4, got 3"),
    (lambda: MeshSpec(2**20), "mesh needs n < 2**20 (n**3 float64 values pass numpy's "
                              "largest array size), got 1048576"),
    (lambda: MeshSpec(10.0), "mesh size n must be an integer, got 10.0"),
    (lambda: preimage._unit_target((1.0, 0.0)), "spin target must be a 3-vector"),
    (lambda: preimage._unit_target((np.inf, 0, 0)), "spin target must be finite"),
    (lambda: preimage._unit_target((1, 1, 0)), "spin target must be a unit vector"),
    (lambda: preimage._check_res(15), "res must be in [16, 512], got 15"),
    (lambda: preimage._check_res(513), "res must be in [16, 512], got 513"),
    (lambda: preimage._check_res(64.0), "res must be an integer, got 64.0"),
    (lambda: preimage.preimage_contours(np.zeros((8, 8, 8, 3)), (0, 0, 1)),
     "res must be in [16, 512], got 8"),
    (lambda: preimage.preimage_contours(np.zeros((8, 8, 8, 3)), (0, 0, 2)),
     "spin target must be a unit vector"),
    (lambda: preimage.refined_preimage(H2, [(0, 0, 1), (0, 1, 1)], 32),
     "spin target must be a unit vector"),
    (lambda: preimage.link_matrix(H2, [(1, 0, 0), (0, 1, 0)], res=600),
     "res must be in [16, 512], got 600"),
    (lambda: preimage.epsilon_neighborhood(_field(), (0, 0, 1), 2.5),
     "epsilon must be in (0, 2], got 2.5"),
    (lambda: preimage.epsilon_neighborhood(_field(), (0, 0, 1), 0.0),
     "epsilon must be in (0, 2], got 0.0"),
    (lambda: preimage.epsilon_neighborhood(_field(), (0, 0, 0.5), 0.3),
     "spin target must be a unit vector"),
    (lambda: adiabatic.split_photons(2), "need 3 to 3 * (2**63 - 1) photons, got 2"),
    (lambda: adiabatic.split_photons(3 * 2**63), "photons, got 27670116110564327424"),
    (lambda: adiabatic._stream_key(-1), "seed must lie in [0, 2**64 - 1], got -1"),
    (lambda: adiabatic._stream_key((0, 2**64)), "seed must lie in [0, 2**64 - 1]"),
    (lambda: adiabatic.run_campaign(H2, MeshSpec(4), threads=-1),
     "threads must be >= 0, got -1"),
    (lambda: adiabatic.run_campaign(H2, MeshSpec(4), photons_per_site=2),
     "photons, got 2"),
    (lambda: adiabatic.run_campaign(H2, MeshSpec(4), seed=2**64),
     "seed must lie in [0, 2**64 - 1]"),
    (lambda: invariants.chi_infinity(1.0), "h=1.0 is a phase transition"),
    (lambda: invariants.chi_infinity(-3.0), "h=-3.0 is a phase transition"),
    (lambda: invariants.chi_infinity(np.inf), "h=inf is not finite"),
    (lambda: invariants.scaling_study(3.0, [6]), "h=3.0 is a phase transition"),
])
def test_each_engine_refuses_its_own_range_with_usage_error(call, message):
    with pytest.raises(UsageError, match=re.escape(message)) as exc:
        call()
    assert isinstance(exc.value, HopfError) and isinstance(exc.value, ValueError)


def test_a_refused_campaign_evaluates_no_model(monkeypatch):
    # the campaign's ranges are checked before u(k) is evaluated
    def fail(*args):
        raise AssertionError("u(k) evaluated before the arguments were checked")

    monkeypatch.setattr(model, "u_of_k", fail)
    for kw in ({"threads": -1}, {"photons_per_site": 2}, {"seed": -1}):
        with pytest.raises(UsageError):
            adiabatic.run_campaign(H2, MeshSpec(4), **kw)


def test_a_refused_scaling_study_samples_no_mesh(monkeypatch):
    # every mesh size is checked before the first is sampled
    def fail(*args):
        raise AssertionError("a mesh sampled before every n was checked")

    monkeypatch.setattr(invariants, "sample_state_field", fail)
    with pytest.raises(UsageError, match=re.escape("mesh needs n < 2**20")):
        invariants.scaling_study(2.0, [6, 2**20])
