import dataclasses
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfsim.adiabatic import (
    DEFAULT_PHOTONS,
    OMEGA_MAX,
    SEGMENT_DURATION,
    SITE_CHUNK,
    MeasurementRecord,
    RampSchedule,
    _propagators,
    _step_product,
    _Workspace,
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


def evolved_from_zero(schedules):
    """evolve(s, [1, 0]) of schedules that share segment 1, each distinct
    passage evolved once in one ``_propagators`` batch."""
    s = schedules[0]
    om, de, phi = np.array([[x.omega_final, x.delta_final, x.phi] for x in schedules]).T
    passages, inverse = np.unique(np.stack([om, de], axis=-1), axis=0, return_inverse=True)
    a, b = _propagators(passages[:, 0], passages[:, 1], s.segment_duration, s.sample_dt,
                        s.omega_peak, s.delta_start)[:, inverse]
    return np.stack([a, b * np.exp(1j * phi)], axis=-1)


# ---------------------------------------------------------------------------
# schedules

def test_schedule_start_and_boundaries():
    s = build_schedule(K_TYPICAL, P2)
    om, ph, de = s.controls(0.0)
    assert om == 0.0
    assert de == pytest.approx(-OMEGA_MAX)
    b1, b2 = s.segment_duration, 2 * s.segment_duration
    assert (b1, b2) == (500e-9, 1000e-9)
    assert s.duration == pytest.approx(1.5e-6)
    assert s.sample_dt == pytest.approx(0.125e-9)
    # segment structure: transverse up, then detuning ramp, then transverse down
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
    k = np.array([mesh.site_k(site) for site in np.ndindex(10, 10, 10)])
    ref = ground_state(k, P2)
    worst_fast, worst_slow = (
        min(fidelity(psi, r) for psi, r in zip(
            evolved_from_zero([build_schedule(kk, P2, segment_duration=seg) for kk in k]), ref))
        for seg in (SEGMENT_DURATION, 2e-6))
    assert worst_slow > worst_fast


def test_batched_evolution_is_evolve():
    mesh = MeshSpec(4)
    schedules = [build_schedule(mesh.site_k(site), P2) for site in np.ndindex(4, 4, 4)]
    for s, psi in zip(schedules, evolved_from_zero(schedules)):
        assert np.array_equal(psi, evolve(s, [1, 0]))


@pytest.mark.parametrize("h", [0.2, 2.0, -2.0])
def test_batched_final_states_match_per_schedule_propagators(h):
    params = HopfParams(h)
    mesh = MeshSpec(6)
    schedules = [build_schedule(mesh.site_k(site), params) for site in np.ndindex(6, 6, 6)]
    assert any(s.omega_final == 0 for s in schedules)  # e.g. k = 0: u along z
    om, de, phi = np.array([[s.omega_final, s.delta_final, s.phi] for s in schedules]).T
    a, b = _propagators(om, de)
    finals = np.stack([a, b * np.exp(1j * phi)], axis=-1)
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


def reference_qmul(x, y):
    (a, b), (c, d) = x, y
    return np.stack([a * c - b.conj() * d, b * c + a.conj() * d])


def reference_step_product(t, dt, seg, omega_peak, omega_final, delta_start, delta_final):
    """The allocating kernel the workspace replaced: fresh arrays for the
    waveform and the steps, and one np.stack (plus a concatenate on odd
    levels) per tree level."""
    x = t / seg
    om = omega_peak * np.clip(x, 0.0, 1.0) + (omega_final - omega_peak) * np.clip(x - 2.0, 0.0, 1.0)
    de = delta_start + (delta_final - delta_start) * np.clip(x - 1.0, 0.0, 1.0)
    vnorm = np.hypot(om, de)
    q = np.zeros((2,) + vnorm.shape, dtype=complex)
    sinc = vnorm * dt
    np.cos(sinc, out=q[0].real)
    np.sin(sinc, out=sinc)
    np.divide(sinc, vnorm, out=sinc, where=vnorm > 0)
    np.negative(sinc, out=sinc)
    np.multiply(de, sinc, out=q[0].imag)
    np.multiply(om, sinc, out=q[1].imag)
    if q.shape[-1] == 0:
        q = np.zeros(q.shape[:-1] + (1,), dtype=complex)
        q[0] = 1.0
    while q.shape[-1] > 1:
        odd = q.shape[-1] % 2
        pairs = reference_qmul(q[..., odd + 1::2], q[..., odd::2])
        q = np.concatenate([q[..., :odd], pairs], axis=-1) if odd else pairs
    return q[..., 0]


def kernel_cases():
    """(t, dt, waveform) over step counts and batch sizes: a detuning ramp
    (|Omega| at its peak throughout) and a ramp-down per case."""
    rng = np.random.default_rng(8)
    dt = 1.0 / 8e9
    for nsteps in (0, 1, 2, 3, 5, 4000, 4001):
        t = (np.arange(nsteps) + 0.5) * dt
        seg = max(nsteps, 1) * dt / 3.0
        for m in (1, 3, 8):
            omega_final = rng.uniform(0, OMEGA_MAX, (m, 1))
            delta_final = rng.uniform(-OMEGA_MAX, OMEGA_MAX, (m, 1))
            yield t, dt, (seg, OMEGA_MAX, OMEGA_MAX, -OMEGA_MAX, delta_final)
            yield t, dt, (seg, OMEGA_MAX, omega_final, -OMEGA_MAX, delta_final)


def test_step_product_is_the_allocating_tree_bit_for_bit():
    cases = list(kernel_cases())
    for t, dt, waveform in cases:
        ref = reference_step_product(t, dt, *waveform)
        got = _step_product(t, dt, *waveform, _Workspace())
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=0)
    # one workspace reused across calls whose sizes fall, then rise again;
    # results kept to the end, so one that aliased the workspace would change
    work, kept = _Workspace(), []
    for t, dt, waveform in cases[::-1][::3] + cases[::5]:
        kept.append((_step_product(t, dt, *waveform, work), reference_step_product(t, dt, *waveform)))
    for got, ref in kept:
        np.testing.assert_allclose(got, ref, rtol=0, atol=0)


def test_concurrent_campaigns_match_serial_ones():
    # two campaigns of two workers each at once, more threads than cores;
    # every worker must keep a workspace of its own
    args = [(HopfParams(2.0), 6, 3), (HopfParams(-0.4), 5, 8)]
    serial = [run_campaign(p, MeshSpec(n), photons_per_site=2000, seed=seed, threads=2)
              for p, n, seed in args]
    results = [None, None]

    def run(i):
        p, n, seed = args[i]
        results[i] = run_campaign(p, MeshSpec(n), photons_per_site=2000, seed=seed, threads=2)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out a shared workspace
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for got, want in zip(results, serial):
        assert got.field.data.tobytes() == want.field.data.tobytes()
        assert got.stats.per_site.tobytes() == want.stats.per_site.tobytes()


@pytest.mark.parametrize("segment_duration, dt, match", [
    (SEGMENT_DURATION, 0.0, "dt"),  # was ZeroDivisionError
    (SEGMENT_DURATION, -1e-10, "dt"),  # was the identity
    (SEGMENT_DURATION, np.nan, "dt"),  # was a bare ValueError from int()
    (SEGMENT_DURATION, -np.inf, "dt"),  # was the identity
    (SEGMENT_DURATION, np.inf, "dt"),
    (-1e-9, None, "segment duration"),  # was the identity
    (np.nan, None, "segment duration"),
    (np.inf, None, "segment duration"),  # was OverflowError
])
def test_bad_step_sizes_raise_value_error(segment_duration, dt, match):
    s = build_schedule(K_TYPICAL, P2, segment_duration=segment_duration)
    with pytest.raises(ValueError, match=match):
        propagator(s, dt)
    with pytest.raises(ValueError, match=match):
        evolve(s, [1, 0], dt)
    with pytest.raises(ValueError, match=match):
        _propagators(np.array([s.omega_final]), np.array([s.delta_final]), segment_duration,
                     s.sample_dt if dt is None else dt)


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
    with pytest.raises(ValueError, match="spinor or a 2x2 density matrix"):
        simulate_measurements([1, 0, 0], 10, seed=0)
    with pytest.raises(ValueError, match="normalized"):
        simulate_measurements(np.array([2, 0]), 300, seed=1)
    with pytest.raises(ValueError, match="unit trace"):
        simulate_measurements(np.eye(2), 300, seed=1)
    rec = simulate_measurements(np.diag([1.0, 0.0]), 300, seed=1)
    assert rec.successes["z"] == rec.shots["z"]


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


@pytest.mark.parametrize("successes", [
    {"x": 20, "y": 5, "z": 5},  # above shots
    {"x": 5, "y": -1, "z": 5},  # below zero
    {"x": 5, "y": 5, "z": 2.5},  # not an integer
])
def test_mle_rejects_successes_outside_shots_or_not_integers(successes):
    rec = MeasurementRecord(shots={"x": 10, "y": 10, "z": 10}, successes=successes,
                            key=(0, 0))
    with pytest.raises(ValueError, match="integer successes"):
        mle_tomography(rec)


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
        result.field.data[0, 2, 2], np.eye(2) / 2, atol=1e-12
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
    assert started == [-(-25 // SITE_CHUNK)]  # 25 distinct passages of the 64 sites
    with pytest.raises(ValueError):
        run_campaign(P2, MeshSpec(4), photons_per_site=300, seed=0, threads=-1)


@pytest.mark.parametrize("h, n, photons, seed, threads, gapped", [
    # three gapless sites; the boundary share is over the other 61
    pytest.param(1.0, 4, 300, 2, 1, 61, id="gapless-sites"),
    # 52 passages over 31 detunings, evolved on two workers
    pytest.param(-2.0, 5, DEFAULT_PHOTONS, 3, 2, 125, id="shared-detunings"),
])
def test_campaign_matches_per_site_route_and_counts_boundary_share(h, n, photons, seed,
                                                                     threads, gapped):
    params, mesh = HopfParams(h), MeshSpec(n)
    result = run_campaign(params, mesh, photons_per_site=photons, seed=seed, threads=threads)
    on_sphere = []
    for index, site in enumerate(np.ndindex(n, n, n)):
        if not np.isfinite(result.stats.per_site[site]):
            continue
        k = mesh.site_k(site)
        psi = evolve(build_schedule(k, params), [1, 0])
        rec = simulate_measurements(psi, photons, seed=(seed, index))
        res = mle_tomography(rec, reference=ground_state(k, params))
        np.testing.assert_allclose(result.field.data[site], res.rho, rtol=0, atol=0)
        assert result.stats.per_site[site] == res.fidelity
        on_sphere.append(res.iterations > 0)
    assert len(on_sphere) == gapped and 0 < sum(on_sphere) < gapped
    assert result.stats.boundary_share == sum(on_sphere) / gapped
    assert result.stats.to_dict()["boundary_share"] == result.stats.boundary_share


def test_campaign_evolves_each_distinct_passage_once(monkeypatch):
    # segments 1-2 once per distinct final detuning, segment 3 once per
    # distinct (omega_final, delta_final) pair
    from hopfsim import adiabatic

    ramps, downs = [], []
    detuning_ramps, ramp_downs = adiabatic._detuning_ramps, adiabatic._ramp_downs

    def counting_ramps(delta_final, *args):
        ramps.append(len(delta_final))
        return detuning_ramps(delta_final, *args)

    def counting_downs(q, omega_final, delta_final, *args):
        assert q.shape[1] == len(omega_final) == len(delta_final)
        downs.append(len(omega_final))
        return ramp_downs(q, omega_final, delta_final, *args)

    monkeypatch.setattr(adiabatic, "_detuning_ramps", counting_ramps)
    monkeypatch.setattr(adiabatic, "_ramp_downs", counting_downs)
    result = run_campaign(P2, MeshSpec(6), photons_per_site=300, seed=0)
    assert sum(ramps) == 39 and max(ramps) <= SITE_CHUNK
    assert sum(downs) == 65 and max(downs) <= SITE_CHUNK
    controls = {(s.omega_final, s.delta_final)
                for s in (build_schedule(MeshSpec(6).site_k(site), P2)
                          for site in np.ndindex(6, 6, 6))}
    assert len(controls) == 65 and len({de for _, de in controls}) == 39
    assert np.isfinite(result.stats.per_site).all()


def test_campaign_draws_the_records_of_simulate_measurements(monkeypatch):
    # the batched draw gives every site the successes of its own record
    from hopfsim import adiabatic

    drawn = []
    draw = adiabatic._draw

    def recording(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(adiabatic, "_draw", recording)
    mesh, seed = MeshSpec(6), 4
    run_campaign(P2, mesh, photons_per_site=DEFAULT_PHOTONS, seed=seed)
    assert len(drawn) == 1 and drawn[0].shape == (216, 3)
    for index, site in enumerate(np.ndindex(6, 6, 6)):
        psi = evolve(build_schedule(mesh.site_k(site), P2), [1, 0])
        rec = simulate_measurements(psi, DEFAULT_PHOTONS, seed=(seed, index))
        assert drawn[0][index].tolist() == [rec.successes[b] for b in "xyz"]


def test_draw_keeps_each_sites_stream_from_one_bit_generator(monkeypatch):
    # site j draws its three bases, in order, from a fresh Philox keyed by keys[j]
    from hopfsim import adiabatic

    rng = np.random.default_rng(8)
    bloch = rng.normal(size=(40, 3))
    bloch /= np.linalg.norm(bloch, axis=1)[:, None]
    bloch[:2] = [[1, 0, 0], [0, -1, 0]]
    n = [31000, 5, 2**63 - 1]
    keys = [(3, i) for i in range(39)] + [(2**64 - 1, 2**64 - 1)]
    expected = [np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
                .binomial(n, np.clip((1 + b) / 2, 0, 1)).tolist() for key, b in zip(keys, bloch)]
    made = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        made.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(adiabatic.np.random, "Philox", counting)
    drawn = adiabatic._draw(bloch, n, iter(keys))
    assert len(made) == 1 and drawn.dtype == np.int64
    assert drawn.tolist() == expected


@pytest.mark.parametrize("photons, seed, match", [
    (2, 0, "photons"),
    (3 * (2**63 - 1) + 1, 0, "photons"),  # more shots per basis than int64 holds
    (300, -1, "seed"),
    (300, 2**64, "seed"),
])
def test_photons_and_seeds_out_of_range_raise_value_error(photons, seed, match):
    with pytest.raises(ValueError, match=match):
        simulate_measurements([1, 0], photons, seed=seed)
    with pytest.raises(ValueError, match=match):
        run_campaign(P2, MeshSpec(4), photons_per_site=photons, seed=seed)


def test_measurement_at_the_ends_of_the_photon_and_seed_ranges():
    rec = simulate_measurements([1, 0], 3 * (2**63 - 1), seed=(2**64 - 1, 2**64 - 1))
    assert rec.successes["z"] == rec.shots["z"] == 2**63 - 1
    with pytest.raises(ValueError, match="seed"):
        simulate_measurements([1, 0], 300, seed=(0, 2**64))
