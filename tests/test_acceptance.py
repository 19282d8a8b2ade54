"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from hopfsim.adiabatic import (
    _propagators,
    build_schedule,
    evolve,
    fidelity,
    mle_tomography,
    run_campaign,
    simulate_measurements,
)
from hopfsim.bzgrid import MeshSpec, StateField, sample_state_field
from hopfsim.invariants import berry_curvature, chern_number, chern_numbers, hopf_index
from hopfsim.model import HopfParams, eta_of_k, ground_state, hopf_f, u_of_k
from hopfsim.preimage import (
    Polyline,
    epsilon_neighborhood,
    gauss_linking_number,
    link_matrix,
    preimage_contours,
)

N = 10
MESH = MeshSpec(N)
PHOTONS = 93000


def report(criterion, ok, detail):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def chi_n10():
    out = {}
    for h in (2.0, 0.0, 4.0):
        t0 = time.perf_counter()
        out[h] = hopf_index(sample_state_field(HopfParams(h), MESH))
        out[f"t{h}"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def campaign_seed0():
    return run_campaign(HopfParams(2.0), MESH, photons_per_site=PHOTONS, seed=0)


def test_criterion_1_hopf_index_quantization(chi_n10):
    chi2, chi0, chi4 = chi_n10[2.0].chi, chi_n10[0.0].chi, chi_n10[4.0].chi
    ok = (
        0.95 <= chi2 <= 1.05
        and -2.10 <= chi0 <= -1.90
        and abs(chi4) <= 0.05
        and all(chi_n10[f"t{h}"] < 10.0 for h in (2.0, 0.0, 4.0))
    )
    assert report(
        1, ok,
        f"chi(2,10)={chi2:.4f} chi(0,10)={chi0:.4f} chi(4,10)={chi4:.4f}, "
        f"each in {max(chi_n10[f't{h}'] for h in (2.0, 0.0, 4.0)):.2f}s",
    )


def test_criterion_2_scaling_to_n20(chi_n10):
    t0 = time.perf_counter()
    chi2_20 = hopf_index(sample_state_field(HopfParams(2.0), MeshSpec(20))).chi
    chi0_20 = hopf_index(sample_state_field(HopfParams(0.0), MeshSpec(20))).chi
    elapsed = time.perf_counter() - t0
    dev2_10, dev0_10 = abs(chi_n10[2.0].chi - 1), abs(chi_n10[0.0].chi + 2)
    dev2_20, dev0_20 = abs(chi2_20 - 1), abs(chi0_20 + 2)
    ok = (
        dev2_20 <= 2e-2
        and dev0_20 <= 4e-2
        and dev2_20 < dev2_10
        and dev0_20 < dev0_10
        and elapsed < 180.0
    )
    assert report(
        2, ok,
        f"|chi20-1|={dev2_20:.4f} |chi20+2|={dev0_20:.4f}, "
        f"n=10 devs {dev2_10:.4f}/{dev0_10:.4f}, {elapsed:.1f}s",
    )


def test_criterion_3_slice_chern_numbers():
    all_zero = True
    for h in (0.0, 2.0):
        cn = chern_numbers(berry_curvature(sample_state_field(HopfParams(h), MESH)))
        all_zero &= all(c == 0 for ax in "xyz" for c in cn[ax])
    # synthetic inputs still give exact integers
    rng = np.random.default_rng(1)
    data = rng.normal(size=(8, 8, 8, 2)) + 1j * rng.normal(size=(8, 8, 8, 2))
    data /= np.linalg.norm(data, axis=-1, keepdims=True)
    synth = berry_curvature(StateField(MeshSpec(8), HopfParams(2.0), data))
    ints = all(
        isinstance(chern_number(synth, ax, j), int)
        for ax in "xyz"
        for j in range(8)
    )
    assert report(3, all_zero and ints, f"30+30 physical slices zero: {all_zero}; "
                  f"synthetic slices integral: {ints}")


def test_criterion_4_gauge_invariance():
    f = sample_state_field(HopfParams(2.0), MESH)
    res0 = hopf_index(f)
    chi0, chern0 = res0.chi, res0.chern_numbers
    rng = np.random.default_rng(42)
    worst = 0.0
    chern_stable = True
    for _ in range(100):
        g = f.apply_gauge(rng.uniform(0, 2 * np.pi, (N, N, N)))
        res = hopf_index(g)
        worst = max(worst, abs(res.chi - chi0))
        chern_stable &= res.chern_numbers == chern0
    ok = worst < 1e-10 and chern_stable
    assert report(4, ok, f"max |dchi| over 100 scrambles = {worst:.2e}, "
                  f"Chern numbers unchanged: {chern_stable}")


def test_criterion_5_links_across_transition():
    lm = link_matrix(HopfParams(2.9), [(1, 0, 0), (0, 1, 0), (0, 0, -1)], res=64)
    pairs = [lm.values[0][1], lm.values[0][2], lm.values[1][2]]
    linked_ok = all(abs(v) == 1 for v in pairs) and len(set(pairs)) == 1
    lm31 = link_matrix(HopfParams(3.1), [(1, 0, 0), (0, 1, 0), (0, 0, -1)], res=64)
    trivial_ok = lm31.absent == [2] and lm31.values[0][1] == 0
    assert report(
        5, linked_ok and trivial_ok,
        f"h=2.9 pairwise lk={pairs}; h=3.1 absent={lm31.absent} "
        f"remaining lk={lm31.values[0][1]}",
    )


def test_criterion_6_link_index_equality(chi_n10):
    lm = link_matrix(HopfParams(0.0), [(1, 0, 0), (0, 1, 0)], res=64)
    lk = lm.values[0][1]
    ok = abs(lk) == 2 and abs(lk) == abs(chi_n10[0.0].nearest_integer)
    assert report(
        6, ok,
        f"h=0 total lk={lk} over {lm.loop_counts} loops, "
        f"|chi(0,10)| rounds to {abs(chi_n10[0.0].nearest_integer)}",
    )


def test_criterion_7_epsilon_robustness():
    f = sample_state_field(HopfParams(2.0), MESH)
    ok = True
    counts = {}
    for sign in (+1, -1):
        target = np.array([sign, sign, 0]) / np.sqrt(2)
        s30 = {s for s, _ in epsilon_neighborhood(f, target, 0.30)}
        s35 = {s for s, _ in epsilon_neighborhood(f, target, 0.35)}
        counts[sign] = (len(s30), len(s35))
        ok &= bool(s30) and s30 <= s35
    assert report(7, ok, f"site counts eps=0.30/0.35: {counts}")


def test_criterion_8_fidelity_statistics(campaign_seed0):
    # noiseless pipeline over the grid: each site's schedule, the distinct
    # passages evolved once in one batch (test_batched_evolution_is_evolve
    # checks that this is evolve(schedule, [1, 0]) bit for bit)
    finals = {}
    noiseless = []
    p = HopfParams(2.0)
    sites = list(np.ndindex(N, N, N))
    schedules = [build_schedule(MESH.site_k(site), p) for site in sites]
    om, de, phi = np.array([[s.omega_final, s.delta_final, s.phi] for s in schedules]).T
    passages, inverse = np.unique(np.stack([om, de], axis=-1), axis=0, return_inverse=True)
    a, b = _propagators(passages[:, 0], passages[:, 1])[:, inverse]
    for site, psi in zip(sites, np.stack([a, b * np.exp(1j * phi)], axis=-1)):
        finals[site] = (psi, ground_state(MESH.site_k(site), p))
        noiseless.append(fidelity(psi, finals[site][1]))
    noiseless_mean = float(np.mean(noiseless))

    # Expected mean of the documented photon model, derived here and not
    # read from the measurement or MLE code.  Each photon is one projective
    # sample in its basis; the photons split into equal thirds (remainder to
    # z), N_b = 31000 per basis.  Let s be the Bloch vector of the evolved
    # (pure, |s| = 1) state and t that of the reference.
    #  - Linear inversion r = s + d, with Var d_b = (1 - s_b^2)/N_b, is
    #    unbiased, so its mean fidelity (1 + r.t)/2 is the noiseless one.
    #  - The MLE keeps r inside the Bloch ball and pulls it back to the
    #    sphere outside it, about half the records.  To first order that
    #    removes the radial part d.s where it is positive and costs
    #    E[max(d.s, 0)]/2 = sigma/(2 sqrt(2 pi)) per site, where
    #    sigma^2 = sum_b s_b^2 (1 - s_b^2)/N_b.
    # Over this mesh that predicts 99.9286 %.  The terms left out are second
    # order in d.  The larger is the sphere's curvature: the pulled-back
    # estimate lands on the sphere, not on its tangent plane, which costs
    # E[|r_mle - s|^2; outside]/4, about E|d|^2/8 = sum_b (1 - s_b^2)/(8 N_b)
    # = 1/(4 N_b) ~ 8.1e-6 since sum_b s_b^2 = 1.  The shift of the ball's
    # edge offsets part of it.  The test takes 1/(4 N_b) as their bound; a
    # Monte Carlo of the exact binomial MLE puts their mesh average at 5e-6.
    # The tolerance is 4 standard errors of the 20 per-seed means (~3.2e-5)
    # plus that bound, about 4e-5 in all.
    third = PHOTONS // 3
    shots = np.array([third, third, PHOTONS - 2 * third], dtype=float)
    psis = np.array([psi for psi, _ in finals.values()])
    cross = np.conj(psis[:, 0]) * psis[:, 1]
    s = np.stack(
        [2 * cross.real, 2 * cross.imag,
         np.abs(psis[:, 0]) ** 2 - np.abs(psis[:, 1]) ** 2], axis=1
    )
    sigma = np.sqrt((s**2 * (1 - s**2) / shots).sum(axis=1))
    predicted = noiseless_mean - float(np.mean(sigma)) / (2 * np.sqrt(2 * np.pi))
    second_order = float(np.mean(((1 - s**2) / shots).sum(axis=1))) / 8

    # 20-seed average of campaign mean/median; the evolution is seed
    # independent, so seeds 1..19 reuse the final states (verified for seed 0
    # against the full pipeline)
    means, medians = [campaign_seed0.stats.mean], [campaign_seed0.stats.median]
    check_mean = _decomposed_campaign_stats(finals, seed=0)[0]
    assert check_mean == pytest.approx(campaign_seed0.stats.mean, abs=1e-12)
    for seed in range(1, 20):
        m, med = _decomposed_campaign_stats(finals, seed)
        means.append(m)
        medians.append(med)
    mean20 = float(np.mean(means))
    median20 = float(np.mean(medians))
    tol = 4 * float(np.std(means, ddof=1)) / np.sqrt(len(means)) + second_order

    ok_noiseless = noiseless_mean >= 0.995
    ok_mean = abs(mean20 - predicted) <= tol <= 1e-4
    # The ideal twin leaves out finite readout contrast and background
    # light, so it must not fall below the experiment's measured 99.4 %.
    ok_paper = mean20 >= 0.994
    ok_median = abs(median20 - 0.9988) <= 0.003
    detail = (
        f"noiseless mean={noiseless_mean*100:.4f}% (>=99.5: {ok_noiseless}); "
        f"20-seed mean={mean20*100:.4f}% vs predicted {predicted*100:.4f}% "
        f"+-{tol*100:.4f}% ({ok_mean}), paper 99.4+-0.3% (not below 99.4: "
        f"{ok_paper}); "
        f"20-seed median={median20*100:.4f}% (target 99.88+-0.3: {ok_median})"
    )
    report(8, ok_noiseless and ok_mean and ok_paper and ok_median, detail)
    assert ok_noiseless, detail
    assert ok_median, detail
    assert ok_mean, detail
    assert ok_paper, detail


def _decomposed_campaign_stats(finals, seed):
    fids = []
    for idx, (site, (psi, ref)) in enumerate(sorted(finals.items())):
        rec = simulate_measurements(psi, PHOTONS, seed=(seed, idx))
        fids.append(mle_tomography(rec, reference=ref).fidelity)
    return float(np.mean(fids)), float(np.median(fids))


def test_criterion_9_end_to_end_topology(campaign_seed0):
    chi_noisy = hopf_index(campaign_seed0.field).chi
    chi_ana = hopf_index(sample_state_field(HopfParams(2.0), MESH)).chi
    ok = abs(chi_noisy - chi_ana) <= 0.1
    assert report(
        9, ok, f"chi noisy={chi_noisy:.4f} analytic={chi_ana:.4f} "
        f"|diff|={abs(chi_noisy - chi_ana):.4f}"
    )


def test_criterion_10_oracle_suite():
    # composition identity on 1e4 random momenta across phases
    rng = np.random.default_rng(7)
    k = rng.uniform(0, 2 * np.pi, (10_000, 3))
    comp_dev = 0.0
    for h in (-3.5, 0.0, 0.5, 2.0, 2.9):
        p = HopfParams(h)
        eu, ed = eta_of_k(k, p)
        comp_dev = max(comp_dev, float(np.abs(hopf_f(eu, ed) - u_of_k(k, p)).max()))

    # linking-number invariances on the canonical Hopf link
    t = np.linspace(0, 2 * np.pi, 90, endpoint=False)
    a = Polyline(np.stack([np.cos(t), np.sin(t), 0 * t], 1), "R3")
    b = Polyline(np.stack([1 + np.cos(t), 0 * t, np.sin(t)], 1), "R3")
    halves = np.stack([a.vertices, (a.vertices + np.roll(a.vertices, -1, axis=0)) / 2], 1)
    a2 = Polyline(halves.reshape(-1, 3), "R3")  # a with every edge's midpoint inserted
    ra, rb = Polyline(a.vertices[::-1], "R3"), Polyline(b.vertices[::-1], "R3")
    base = gauss_linking_number(a, b).value
    th = 0.9
    rot = np.array(
        [[1, 0, 0], [0, np.cos(th), -np.sin(th)], [0, np.sin(th), np.cos(th)]]
    )
    link_ok = (
        abs(base) == 1
        and gauss_linking_number(a2, b).value == base
        and gauss_linking_number(Polyline(a.vertices @ rot.T, "R3"),
                                 Polyline(b.vertices @ rot.T, "R3")).value == base
        and gauss_linking_number(ra, rb).value == base
        and gauss_linking_number(ra, b).value == -base
    )

    # integrator step-halving
    p2 = HopfParams(2.0)
    kf = 2 * np.pi * np.array([0.4, 0.3, 0.5])
    s = build_schedule(kf, p2)
    ref = ground_state(kf, p2)
    dF = abs(
        fidelity(evolve(s, [1, 0]), ref)
        - fidelity(evolve(s, [1, 0], dt=s.sample_dt / 2), ref)
    )

    # MLE physicality on 1e3 random small-sample records
    mle_ok = True
    for i in range(1000):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        th_, ph_ = np.arccos(v[2]), np.arctan2(v[1], v[0])
        psi = np.array([np.cos(th_ / 2), np.exp(1j * ph_) * np.sin(th_ / 2)])
        rec = simulate_measurements(psi, int(rng.integers(3, 300)), seed=(10, i))
        rho = mle_tomography(rec).rho
        mle_ok &= (
            np.linalg.eigvalsh(rho).min() > -1e-9
            and abs(np.trace(rho).real - 1) < 1e-9
        )

    ok = comp_dev <= 1e-12 and link_ok and dF < 1e-8 and mle_ok
    assert report(
        10, ok,
        f"composition dev={comp_dev:.2e}; link invariances: {link_ok}; "
        f"step-halving dF={dF:.2e}; MLE physical on 1000 records: {mle_ok}",
    )
