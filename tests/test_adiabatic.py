import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfsim.adiabatic import (
    DEFAULT_PHOTONS,
    OMEGA_MAX,
    SITE_CHUNK,
    MeasurementRecord,
    RampSchedule,
    _propagators,
    build_schedule,
    evolve,
    fidelity,
    mle_tomography,
    propagator,
    run_campaign,
    simulate_measurements,
    split_photons,
)
from hopfsim.bzgrid import MeshSpec
from hopfsim.errors import GaplessPoint
from hopfsim.model import HopfParams, ground_state, u_of_k

P2 = HopfParams(2.0)
K_TYPICAL = 2 * np.pi * np.array([0.4, 0.3, 0.5])


def pure_state(bloch):
    th = np.arccos(bloch[2])
    ph = np.arctan2(bloch[1], bloch[0])
    return np.array([np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)])


# ---------------------------------------------------------------------------
# schedules

def test_schedule_start_and_boundaries():
    s = build_schedule(K_TYPICAL, P2)
    t, om, ph, de = s.samples()
    assert om[0] == 0.0
    assert de[0] == pytest.approx(-OMEGA_MAX)
    assert s.boundaries == (500e-9, 1000e-9)
    assert s.duration == pytest.approx(1.5e-6)
    assert t[1] - t[0] == pytest.approx(0.125e-9)
    # segment structure: transverse up, then detuning ramp, then transverse down
    b1, b2 = s.boundaries
    om_b1, _, de_b1 = s.controls(b1)
    om_b2, _, de_b2 = s.controls(b2)
    assert om_b1 == pytest.approx(OMEGA_MAX) and de_b1 == pytest.approx(-OMEGA_MAX)
    assert om_b2 == pytest.approx(OMEGA_MAX) and de_b2 == pytest.approx(s.delta_final)
    # piecewise linear: midpoint of segment 1 has half the peak amplitude
    om_mid, _, _ = s.controls(b1 / 2)
    assert om_mid == pytest.approx(OMEGA_MAX / 2)


def test_schedule_final_control_parallel_to_u():
    for k in (K_TYPICAL, 2 * np.pi * np.array([0.1, 0.7, 0.3])):
        s = build_schedule(k, P2)
        om, ph, de = (float(x) for x in s.controls(s.duration))
        v = np.array([om * np.cos(ph), om * np.sin(ph), de])
        u = u_of_k(k, P2)
        cross = np.cross(v / np.linalg.norm(v), u / np.linalg.norm(u))
        assert np.linalg.norm(cross) < 1e-9
        # normalization: the largest of (transverse, |uz|) maps to OMEGA_MAX
        assert max(om, abs(de)) == pytest.approx(OMEGA_MAX)


def test_schedule_diagonal_target_ramps_transverse_down_to_zero():
    # k=(0,0,0): u = (0, 0, -25), already diagonal
    s = build_schedule((0, 0, 0), P2)
    assert s.omega_peak == pytest.approx(OMEGA_MAX)
    assert s.omega_final == 0.0
    assert s.delta_final == pytest.approx(-OMEGA_MAX)


def test_schedule_gapless_raises():
    with pytest.raises(GaplessPoint):
        build_schedule((0, np.pi, np.pi), HopfParams(1.0))


# ---------------------------------------------------------------------------
# evolution

def test_zero_duration_returns_initial():
    s = RampSchedule(
        phi=0.0, delta_start=-1.0, delta_final=-1.0, omega_peak=0.0,
        omega_final=0.0, segment_duration=0.0,
    )
    psi = evolve(s, [1, 0])
    np.testing.assert_array_equal(psi, [1, 0])


def test_evolution_unitary_and_adiabatic_at_typical_point():
    s = build_schedule(K_TYPICAL, P2)
    psi = evolve(s, [1, 0])
    assert abs(np.linalg.norm(psi) - 1) < 1e-10
    assert fidelity(psi, ground_state(K_TYPICAL, P2)) >= 0.99


def test_step_halving_convergence():
    s = build_schedule(K_TYPICAL, P2)
    ref = ground_state(K_TYPICAL, P2)
    f1 = fidelity(evolve(s, [1, 0]), ref)
    f2 = fidelity(evolve(s, [1, 0], dt=s.sample_dt / 2), ref)
    assert abs(f1 - f2) < 1e-8


def test_evolve_rejects_coarse_dt_and_unnormalized_state():
    s = build_schedule(K_TYPICAL, P2)
    with pytest.raises(ValueError):
        evolve(s, [1, 0], dt=1e-9)
    with pytest.raises(ValueError):
        evolve(s, [1, 1])


def test_propagator_unitary_for_random_schedules():
    rng = np.random.default_rng(4)
    for _ in range(10):
        s = RampSchedule(
            phi=rng.uniform(-np.pi, np.pi),
            delta_start=rng.uniform(-1, 1) * OMEGA_MAX,
            delta_final=rng.uniform(-1, 1) * OMEGA_MAX,
            omega_peak=rng.uniform(0, 1) * OMEGA_MAX,
            omega_final=rng.uniform(0, 1) * OMEGA_MAX,
            segment_duration=100e-9,
        )
        u = propagator(s)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-10


def test_adiabatic_limit_slower_is_better():
    # 4x segment durations must strictly raise the worst-site fidelity
    mesh = MeshSpec(10)
    worst_fast, worst_slow = 1.0, 1.0
    for jx in range(10):
        for jy in range(10):
            for jz in range(10):
                k = mesh.site_k((jx, jy, jz))
                ref = ground_state(k, P2)
                fast = fidelity(evolve(build_schedule(k, P2), [1, 0]), ref)
                slow = fidelity(
                    evolve(build_schedule(k, P2, segment_duration=2e-6), [1, 0]), ref
                )
                worst_fast = min(worst_fast, fast)
                worst_slow = min(worst_slow, slow)
    assert worst_slow > worst_fast


@pytest.mark.parametrize("h", [0.2, 2.0, -2.0])
def test_batched_final_states_match_per_schedule_propagators(h):
    params = HopfParams(h)
    mesh = MeshSpec(6)
    schedules = [build_schedule(mesh.site_k(site), params) for site in np.ndindex(6, 6, 6)]
    assert any(s.omega_final == 0 for s in schedules)  # e.g. k = 0: u along z
    finals = _propagators(schedules)[:, :, 0]
    for s, psi in zip(schedules, finals):
        ref = propagator(s) @ np.array([1, 0])
        assert abs(abs(np.vdot(ref, psi)) ** 2 - 1) <= 1e-12


def test_propagator_is_the_step_product_and_phi_a_frame_rotation():
    # short random schedules whose segments hold a non-integer number of
    # steps, against the sequential product of exact 2x2 step exponentials
    rng = np.random.default_rng(5)
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0])
    for _ in range(10):
        s = RampSchedule(
            phi=rng.uniform(-np.pi, np.pi),
            delta_start=rng.uniform(-1, 1) * OMEGA_MAX,
            delta_final=rng.uniform(-1, 1) * OMEGA_MAX,
            omega_peak=rng.uniform(0, 1) * OMEGA_MAX,
            omega_final=rng.uniform(0, 1) * OMEGA_MAX,
            segment_duration=rng.uniform(5e-9, 15e-9),
        )
        dt = s.sample_dt
        mid = (np.arange(int(round(s.duration / dt))) + 0.5) * dt
        ref = np.eye(2, dtype=complex)
        for om, ph, de in zip(*s.controls(mid)):
            v = np.array([om * np.cos(ph), om * np.sin(ph), de])
            norm = np.linalg.norm(v)
            gen = (v[0] * sx + v[1] * sy + v[2] * sz) / norm
            ref = (np.cos(norm * dt) * np.eye(2) - 1j * np.sin(norm * dt) * gen) @ ref
        u = propagator(s)
        assert np.abs(u - ref).max() < 1e-12
        rz = np.diag([np.exp(-0.5j * s.phi), np.exp(0.5j * s.phi)])
        u0 = propagator(dataclasses.replace(s, phi=0.0))
        assert np.abs(u - rz @ u0 @ rz.conj().T).max() < 1e-12


# ---------------------------------------------------------------------------
# measurements

def test_split_photons_remainder_to_z():
    assert split_photons(93000) == {"x": 31000, "y": 31000, "z": 31000}
    assert split_photons(10) == {"x": 3, "y": 3, "z": 4}


def test_measurement_eigenstate_all_successes():
    rec = simulate_measurements([1, 0], 999, seed=3)
    assert rec.successes["z"] == rec.shots["z"]


def test_measurement_balanced_state_halves():
    psi = np.array([1, 1]) / np.sqrt(2)
    rec = simulate_measurements(psi, 3_000_000, seed=5)
    assert rec.successes["z"] / rec.shots["z"] == pytest.approx(0.5, abs=2e-3)
    assert rec.successes["x"] == rec.shots["x"]  # +x eigenstate


def test_measurement_determinism():
    psi = pure_state(np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8]))
    a = simulate_measurements(psi, 12345, seed=(9, 42))
    b = simulate_measurements(psi, 12345, seed=(9, 42))
    assert a == b
    c = simulate_measurements(psi, 12345, seed=(9, 43))
    assert a != c


def test_measurement_validation():
    with pytest.raises(ValueError):
        simulate_measurements([1, 0], 2, seed=0)
    with pytest.raises(ValueError):
        simulate_measurements([1, 0], 10, split={"x": 10}, seed=0)
    with pytest.raises(ValueError, match="spinor or a 2x2 density matrix"):
        simulate_measurements([1, 0, 0], 10, seed=0)


# ---------------------------------------------------------------------------
# tomography

def test_mle_exact_frequencies_recover_pure_state():
    psi = pure_state(np.array([0.6, 0.0, 0.8]))
    rec = MeasurementRecord(
        shots={"x": 1000, "y": 1000, "z": 1000},
        successes={"x": 800, "y": 500, "z": 900},
        key=(0, 0),
    )
    res = mle_tomography(rec, reference=psi)
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)


def test_mle_overlong_bloch_lands_on_boundary():
    rec = MeasurementRecord(
        shots={"x": 10, "y": 10, "z": 10},
        successes={"x": 10, "y": 9, "z": 10},
        key=(0, 0),
    )
    res = mle_tomography(rec)
    evs = np.linalg.eigvalsh(res.rho)
    assert evs.min() > -1e-9
    assert np.trace(res.rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(res.bloch) <= 1 + 1e-9


def test_mle_small_sample_physicality():
    rng = np.random.default_rng(77)
    for i in range(100):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        rec = simulate_measurements(pure_state(v), int(rng.integers(3, 200)), seed=(1, i))
        rho = mle_tomography(rec).rho
        assert np.linalg.eigvalsh(rho).min() > -1e-9
        assert abs(np.trace(rho).real - 1) < 1e-9
        assert np.abs(rho - rho.conj().T).max() < 1e-12


def test_mle_likelihood_beats_grid_scan():
    # the reported maximizer should dominate a dense scan of pure and mixed states
    from hopfsim.adiabatic import _loglik

    rec = simulate_measurements(pure_state(np.array([0, 0.6, 0.8])), 50, seed=(2, 0))
    best = mle_tomography(rec)
    rng = np.random.default_rng(8)
    for _ in range(2000):
        r = rng.normal(size=3)
        r = r / np.linalg.norm(r) * rng.uniform(0, 1) ** (1 / 3)
        assert _loglik(r, rec) <= best.loglik + 1e-9


@st.composite
def pauli_records(draw):
    shots, successes = {}, {}
    for b in "xyz":
        shots[b] = draw(st.integers(1, 400))
        successes[b] = draw(st.one_of(st.sampled_from([0, shots[b]]),
                                      st.integers(0, shots[b])))
    return MeasurementRecord(shots=shots, successes=successes, key=(0, 0))


@settings(max_examples=300, deadline=None)
@given(pauli_records())
def test_mle_closed_form_is_the_likelihood_maximum(rec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = mle_tomography(rec)
    rhat = np.array([2 * rec.successes[b] / rec.shots[b] - 1 for b in "xyz"])
    r = res.bloch
    if (rhat * rhat).sum() <= 1:
        assert np.array_equal(r, rhat) and res.iterations == 0
        return
    assert res.iterations > 0
    assert abs(np.linalg.norm(r) - 1) <= 1e-12
    # KKT on the sphere: grad L = 2 mu r with mu >= 0
    s, n = (np.array([getattr(rec, f)[b] for b in "xyz"]) for f in ("successes", "shots"))
    grad = (np.divide(s, 1 + r, out=np.zeros(3), where=s > 0)
            - np.divide(n - s, 1 - r, out=np.zeros(3), where=n > s))
    mu = grad @ r / 2
    assert mu >= 0
    assert np.linalg.norm(grad - 2 * mu * r) <= 1e-9 * np.linalg.norm(grad)
    pts = np.random.default_rng(0).normal(size=(2000, 3))
    pts *= (np.random.default_rng(1).uniform(size=2000) ** (1 / 3)
            / np.linalg.norm(pts, axis=1))[:, None]
    p = np.clip((1 + pts) / 2, 1e-300, 1 - 1e-16)
    ll = (s * np.log(p) + (n - s) * np.log1p(-p)).sum(axis=1)
    assert ll.max() <= res.loglik + 1e-9


def test_mle_requires_all_bases():
    rec = MeasurementRecord(
        shots={"x": 0, "y": 5, "z": 5}, successes={"x": 0, "y": 3, "z": 5}, key=(0, 0)
    )
    with pytest.raises(ValueError):
        mle_tomography(rec)


def test_tomography_fidelity_improves_with_photons():
    rng = np.random.default_rng(10)
    medians = []
    for photons in (1_000, 10_000, 1_000_000):
        fids = []
        for i in range(40):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            psi = pure_state(v)
            rec = simulate_measurements(psi, photons, seed=(photons, i))
            fids.append(mle_tomography(rec, reference=psi).fidelity)
        medians.append(np.median(fids))
    assert medians[0] < medians[1] < medians[2]


# ---------------------------------------------------------------------------
# campaign

def test_campaign_deterministic_and_physical():
    mesh = MeshSpec(4)
    a = run_campaign(P2, mesh, photons_per_site=4000, seed=11)
    b = run_campaign(P2, mesh, photons_per_site=4000, seed=11)
    assert np.array_equal(a.field.data, b.field.data)
    assert np.array_equal(a.stats.per_site, b.stats.per_site)
    assert a.field.kind == "rho" and a.field.provenance == "simulated-experiment"
    assert a.stats.errors == []
    c = run_campaign(P2, mesh, photons_per_site=4000, seed=12)
    assert not np.array_equal(a.field.data, c.field.data)


def test_campaign_threaded_matches_serial():
    mesh = MeshSpec(4)
    serial = run_campaign(P2, mesh, photons_per_site=2000, seed=3, threads=1)
    threaded = run_campaign(P2, mesh, photons_per_site=2000, seed=3, threads=4)
    assert np.array_equal(serial.field.data, threaded.field.data)


def test_campaign_collects_site_failures_and_continues():
    # h=1 closes the gap at three sites of the n=4 mesh; the campaign must
    # finish, report those sites and keep placeholder states there
    result = run_campaign(HopfParams(1.0), MeshSpec(4), photons_per_site=300, seed=0)
    failed_sites = {site for site, _ in result.stats.errors}
    assert failed_sites == {(0, 2, 2), (2, 0, 2), (2, 2, 0)}
    assert all(isinstance(e, GaplessPoint) for _, e in result.stats.errors)
    per_site = result.stats.per_site
    assert np.isnan([per_site[s] for s in failed_sites]).all()
    assert np.isfinite(per_site).sum() == 64 - 3
    assert 0.9 < result.stats.mean <= 1.0
    d = result.stats.to_dict()
    assert sum(x is None for x in d["per_site"]) == 3
    np.testing.assert_allclose(
        result.field.site_state((0, 2, 2)), np.eye(2) / 2, atol=1e-12
    )


def test_campaign_stats_shape():
    stats = run_campaign(P2, MeshSpec(4), photons_per_site=3000, seed=0).stats
    assert 0.9 < stats.mean <= 1.0
    assert stats.ci95[0] <= stats.median <= stats.ci95[1]
    assert stats.per_site.shape == (4, 4, 4)
    counts, edges = stats.histogram
    assert counts.sum() == 64 and len(edges) == len(counts) + 1
    d = stats.to_dict()
    assert set(d) >= {"mean_fidelity", "median_fidelity", "ci95", "per_site"}


def test_campaign_threads_identical_across_many_chunks():
    mesh = MeshSpec(6)  # 216 sites, 27 chunks
    runs = [run_campaign(P2, mesh, photons_per_site=2000, seed=5, threads=t)
            for t in (1, 2, 0)]
    for other in runs[1:]:
        assert other.field.data.tobytes() == runs[0].field.data.tobytes()
        assert other.stats.per_site.tobytes() == runs[0].stats.per_site.tobytes()


def test_campaign_caps_workers_at_chunks_and_rejects_negative_threads(monkeypatch):
    import concurrent.futures

    started = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    run_campaign(P2, MeshSpec(4), photons_per_site=300, seed=0, threads=12)
    assert started == [4**3 // SITE_CHUNK]
    with pytest.raises(ValueError):
        run_campaign(P2, MeshSpec(4), photons_per_site=300, seed=0, threads=-1)


def test_campaign_matches_per_site_route_and_counts_boundary_share():
    # h=1: three gapless sites; the boundary share is over the other 61
    params, mesh = HopfParams(1.0), MeshSpec(4)
    result = run_campaign(params, mesh, photons_per_site=300, seed=2)
    on_sphere = []
    for index, site in enumerate(np.ndindex(4, 4, 4)):
        if not np.isfinite(result.stats.per_site[site]):
            continue
        k = mesh.site_k(site)
        psi = evolve(build_schedule(k, params), [1, 0])
        rec = simulate_measurements(psi, 300, seed=(2, index))
        res = mle_tomography(rec, reference=ground_state(k, params))
        np.testing.assert_allclose(result.field.site_state(site), res.rho, rtol=0, atol=1e-12)
        assert abs(result.stats.per_site[site] - res.fidelity) <= 1e-12
        on_sphere.append(res.iterations > 0)
    assert len(on_sphere) == 61 and 0 < sum(on_sphere) < 61
    assert result.stats.boundary_share == sum(on_sphere) / 61
    assert result.stats.to_dict()["boundary_share"] == result.stats.boundary_share
