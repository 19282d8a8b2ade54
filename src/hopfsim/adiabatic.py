"""Digital twin of the adiabatic-passage tomography experiment.

Per momentum point the simulated run is: build the three-segment microwave
ramp that carries the spin from |0> to the ground state of the normalized
target Hamiltonian, integrate the rotating-frame Schrodinger equation with
exact SU(2) steps, draw photon-shot-noise Pauli measurements, and
reconstruct the density matrix by maximum-likelihood tomography.  A
campaign runs that pipeline on arrays of sites: the steps are unit
quaternions reduced by a pairwise tree, the drive phase is a frame rotation
applied after the evolution, so the ramp-up segment is shared by all sites,
and the MLE has a closed form.  Per-site counter-based random streams make
campaigns reproducible and independent of scheduling order.

The photon model is ideal: each photon is one projective sample in its
Pauli basis.  There is no readout contrast, no background count and no
control error, so shot noise is the only noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import model
from .bzgrid import PROVENANCE_SIMULATED, StateField, bloch_vectors_of
from .errors import HopfError

OMEGA_MAX = 2.0 * np.pi * 20.83e6  # rad/s, the peak Rabi frequency
SEGMENT_DURATION = 500e-9  # s per linear ramp
SAMPLE_RATE = 8e9  # Hz, waveform sampling
DEFAULT_PHOTONS = 93_000

# Sites evolved together.  A segment of 4000 steps then takes about 1 MB per
# quaternion array; larger chunks raise the peak memory and run no faster.
SITE_CHUNK = 8

BASES = ("x", "y", "z")


def _waveform(t, seg, omega_peak, omega_final, delta_start, delta_final):
    """(|Omega|, Delta) of the three linear segments at times t (broadcasts)."""
    x = np.asarray(t, dtype=float) / seg if seg else np.full(np.shape(t), 3.0)
    om = omega_peak * np.clip(x, 0.0, 1.0) + (omega_final - omega_peak) * np.clip(x - 2.0, 0.0, 1.0)
    de = delta_start + (delta_final - delta_start) * np.clip(x - 1.0, 0.0, 1.0)
    return om, de


@dataclass(frozen=True)
class RampSchedule:
    """Piecewise-linear control waveform (|Omega|, phi, Delta) for one passage.

    Three equal segments: transverse ramp-up at fixed detuning, detuning ramp,
    transverse ramp-down to the target; phi is constant throughout.  Samples
    live on a uniform grid at ``sample_dt`` spacing (materialized on demand).
    """

    phi: float
    delta_start: float
    delta_final: float
    omega_peak: float
    omega_final: float
    segment_duration: float = SEGMENT_DURATION
    sample_dt: float = 1.0 / SAMPLE_RATE

    @property
    def duration(self):
        return 3.0 * self.segment_duration

    @property
    def boundaries(self):
        return (self.segment_duration, 2.0 * self.segment_duration)

    def controls(self, t):
        """(|Omega|, phi, Delta) at times t (piecewise-linear interpolation)."""
        om, de = _waveform(t, self.segment_duration, self.omega_peak, self.omega_final,
                           self.delta_start, self.delta_final)
        return om, np.full_like(om, self.phi), de

    def samples(self):
        """Control tuples on the uniform sample grid, (t, |Omega|, phi, Delta)."""
        nsteps = int(round(self.duration / self.sample_dt))
        t = np.arange(nsteps + 1) * self.sample_dt
        om, ph, de = self.controls(t)
        return t, om, ph, de


def build_schedule(k, params, segment_duration=SEGMENT_DURATION):
    """Ramp schedule preparing the ground state of the normalized H_k.

    The target Hamiltonian is scaled so max(|transverse|, |uz|) equals the
    peak Rabi frequency; the passage starts from |Omega| = 0 at detuning
    -OMEGA_MAX (ground state |0>) and ends with controls parallel to u(k).

    Raises
    ------
    GaplessPoint
        If |u(k)| vanishes.
    """
    u = model.u_of_k(k, params)
    norm = float(np.linalg.norm(u))
    if norm < model.GAP_TOL:
        from .errors import GaplessPoint

        raise GaplessPoint(f"cannot build a passage onto a gapless point k={k}", k=k)
    trans = float(np.hypot(u[..., 0], u[..., 1]))
    scale = OMEGA_MAX / max(trans, abs(float(u[..., 2])))
    return RampSchedule(
        phi=float(np.arctan2(u[..., 1], u[..., 0])),
        delta_start=-OMEGA_MAX,
        delta_final=float(u[..., 2]) * scale,
        omega_peak=OMEGA_MAX,
        omega_final=trans * scale,
        segment_duration=segment_duration,
    )


# ---------------------------------------------------------------------------
# evolution: an SU(2) step is a unit quaternion q, U = q0 - i (q1, q2, q3).sigma,
# held as its Cayley-Klein pair (a, b) = (q0 - i q3, q2 - i q1), two complex
# numbers (4 reals), so that U = [[a, -b*], [b, a*]]

def _qmul(x, y):
    """Quaternion product x y (the unitary of x after y); pairs on axis 0."""
    (a, b), (c, d) = x, y
    return np.stack([a * c - b.conj() * d, b * c + a.conj() * d])


def _step_product(t, dt, *waveform):
    """Time-ordered product (pairwise tree) of the exact steps
    exp(-i dt (om sx + de sz)) at the times t (last axis, latest last), with
    (om, de) = _waveform(t, *waveform)."""
    om, de = _waveform(t, *waveform)
    vnorm = np.hypot(om, de)
    q = np.zeros((2,) + vnorm.shape, dtype=complex)  # filled in place: the peak memory
    sinc = vnorm * dt  # theta, then -sin(theta)/|v|
    np.cos(sinc, out=q[0].real)
    np.sin(sinc, out=sinc)
    np.divide(sinc, vnorm, out=sinc, where=vnorm > 0)
    np.negative(sinc, out=sinc)
    np.multiply(de, sinc, out=q[0].imag)
    np.multiply(om, sinc, out=q[1].imag)
    del om, de, vnorm, sinc
    if q.shape[-1] == 0:  # no steps: the identity
        q = np.zeros(q.shape[:-1] + (1,), dtype=complex)
        q[0] = 1.0
    while q.shape[-1] > 1:
        odd = q.shape[-1] % 2  # an odd first step waits for the next level
        pairs = _qmul(q[..., odd + 1::2], q[..., odd::2])
        q = np.concatenate([q[..., :odd], pairs], axis=-1) if odd else pairs
    return q[..., 0]


@lru_cache(maxsize=8)
def _ramp_up(omega_peak, delta_start, seg, dt, nsteps):
    """Product of the first ``nsteps`` steps, all in segment 1, which depends
    on no final control: one pair shared by every passage of a campaign."""
    t = (np.arange(nsteps) + 0.5) * dt
    return tuple(_step_product(t, dt, seg, omega_peak, omega_peak, delta_start, delta_start))


def _propagators(schedules, dt=None):
    """Total unitaries (m, 2, 2) of passages sharing segment 1 (timing, peak
    Rabi frequency and start detuning, as from ``build_schedule``).

    Each step, an exact exponential at its midpoint, is in the segment that
    holds its midpoint.  Passages run at phi = 0 and are rotated after, since
    U_phi = Rz(phi) U_0 Rz(-phi) turns b by exp(i phi).
    """
    s = schedules[0]
    dt = s.sample_dt if dt is None else dt
    if dt > s.sample_dt * (1 + 1e-12):
        raise ValueError(f"dt={dt} exceeds the schedule sampling interval {s.sample_dt}")
    seg, nsteps = s.segment_duration, int(round(s.duration / dt))
    b1, b2 = (min(max(int(np.ceil(j * seg / dt - 0.5)), 0), nsteps) for j in (1, 2))
    q = np.array(_ramp_up(s.omega_peak, s.delta_start, seg, dt, b1))[:, None]
    om_final, de_final, phi = np.array([[x.omega_final, x.delta_final, x.phi] for x in schedules]).T
    for lo, hi in ((b1, b2), (b2, nsteps)):
        t = (np.arange(lo, hi) + 0.5) * dt
        q = _qmul(_step_product(t, dt, seg, s.omega_peak, om_final[:, None],
                                s.delta_start, de_final[:, None]), q)
    a, b = q / np.sqrt((q.real**2 + q.imag**2).sum(axis=0))  # rounding drifts |q| ~1e-12
    b = b * np.exp(1j * phi)
    return np.stack([a, -b.conj(), b, a.conj()], axis=-1).reshape(-1, 2, 2)


def propagator(schedule, dt=None):
    """Total unitary of a schedule from midpoint-sampled exact SU(2) steps."""
    return _propagators([schedule], dt)[0]


def evolve(schedule, initial, dt=None):
    """Final state of the passage; exactly norm-preserving per step."""
    initial = np.asarray(initial, dtype=complex)
    if abs(np.linalg.norm(initial) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    return propagator(schedule, dt) @ initial


def fidelity(rho_or_psi, reference):
    """Overlap <ref|rho|ref> (or |<ref|psi>|^2 for pure states)."""
    reference = np.asarray(reference, dtype=complex)
    state = np.asarray(rho_or_psi, dtype=complex)
    if state.shape == (2,):
        return float(np.abs(np.vdot(reference, state)) ** 2)
    return float(np.real(np.conj(reference) @ state @ reference))


# ---------------------------------------------------------------------------
# photon shot-noise measurements

@dataclass(frozen=True)
class MeasurementRecord:
    """Per-basis shot allocations and success counts for one site."""

    shots: dict
    successes: dict
    key: tuple


def split_photons(photons):
    """Equal thirds across the x, y, z bases, remainder assigned to z."""
    third = photons // 3
    return {"x": third, "y": third, "z": photons - 2 * third}


def simulate_measurements(state, photons, split=None, seed=0):
    """Binomial photon counts in the three Pauli bases.

    Each photon is an ideal projective sample in its basis: no readout
    contrast, no background counts and no control error enter the draw.
    Success probability per basis is (1 + <sigma_basis>)/2; the draw is a
    counter-based stream keyed by ``seed`` (an int or an int pair), so equal
    keys reproduce identical records regardless of call order.
    """
    photons = int(photons)
    if photons < 3:
        raise ValueError(f"need at least 3 photons, got {photons}")
    shots = dict(split) if split is not None else split_photons(photons)
    if set(shots) != set(BASES) or any(shots[b] < 1 for b in BASES):
        raise ValueError(f"allocation must cover all three bases, got {shots}")
    state = np.asarray(state, dtype=complex)
    if state.shape not in ((2,), (2, 2)):
        raise ValueError(f"state must be a spinor or a 2x2 density matrix, got {state.shape}")
    s = bloch_vectors_of(state)
    key = tuple(int(x) for x in (seed if isinstance(seed, (tuple, list)) else (seed, 0)))
    rng = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    successes = {}
    for i, b in enumerate(BASES):
        p = float(np.clip((1.0 + s[i]) / 2.0, 0.0, 1.0))
        successes[b] = int(rng.binomial(shots[b], p))
    return MeasurementRecord(shots=shots, successes=successes, key=key)


# ---------------------------------------------------------------------------
# maximum-likelihood tomography

@dataclass
class TomographyResult:
    rho: np.ndarray
    fidelity: float | None
    photons: int
    loglik: float
    iterations: int  # multiplier-solve iterations; 0 inside the Bloch ball
    bloch: np.ndarray | None = None


def _loglik(r, record):
    total = 0.0
    for i, b in enumerate(BASES):
        p = min(max((1.0 + r[i]) / 2.0, 1e-300), 1.0 - 1e-16)
        s, n = record.successes[b], record.shots[b]
        total += s * np.log(p) + (n - s) * np.log1p(-p)
    return total


def _axis_roots(rhat, n, mu):
    """Per-axis maximizers r_b(mu) of L_b(r) - mu r^2 on [-1, 1] and dr_b/dmu.

    r_b is the middle root of 2 mu r^3 - (n_b + 2 mu) r + n_b rhat_b
    (trigonometric form, one Newton polish); on a saturated axis,
    rhat_b = +-1, the cubic has the spurious root rhat_b and factors exactly.
    """
    a = n / (2.0 * mu)
    sp = np.sqrt((1.0 + a) / 3.0)
    arg = np.clip(-a * rhat / (2.0 * sp**3), -1.0, 1.0)
    r = 2.0 * sp * np.cos(np.arccos(arg) / 3.0 - 2.0 * np.pi / 3.0)
    dg = 3.0 * r * r - 1.0 - a
    r -= np.divide((r * r - 1.0 - a) * r + a * rhat, dg, out=np.zeros_like(r), where=dg < 0)
    saturated = rhat * np.minimum(1.0, 0.5 * (np.sqrt(1.0 + 4.0 * a) - 1.0))
    r = np.where(np.abs(rhat) == 1.0, saturated, np.clip(r, -1.0, 1.0))
    dg = 3.0 * r * r - 1.0 - a
    return r, np.divide((rhat - r) * a / mu, dg, out=np.zeros_like(r), where=dg < 0)


def _mle_bloch(records):
    """Maximum-likelihood Bloch vectors of records: (r, iterations, on_sphere).

    Off the ball, sum_b r_b(mu)^2 falls monotonically through 1.  Newton steps
    on mu stay in a bracket [lo, hi] and give way to bisection when they would
    leave it or not halve the step before last (a saturated axis puts a kink
    at mu = n_b/4, where plain Newton cycles); hi = |n|/2 as |r_b| <=
    n_b/(2 mu).  A converged site stops changing, so its result does not
    depend on the rest of the batch.
    """
    s, n = (np.array([[getattr(rec, f)[b] for b in BASES] for rec in records], dtype=float)
            for f in ("successes", "shots"))
    r = 2.0 * s / n - 1.0
    norm2 = (r * r).sum(axis=-1)
    on_sphere = norm2 > 1.0
    iterations = np.zeros(len(r), dtype=int)
    if not on_sphere.any():
        return r, iterations, on_sphere
    rhat, n, norm2 = r[on_sphere], n[on_sphere], norm2[on_sphere]
    lo, hi = np.zeros(len(rhat)), 0.5 * np.sqrt((n * n).sum(axis=-1))
    # first-order start: rhat_b - r_b ~ 2 mu u_b (1 - u_b^2)/n_b, u = rhat/|rhat|
    u2 = rhat * rhat / norm2[:, None]
    mu = (norm2 - 1.0) / (4.0 * np.sqrt(norm2) * (u2 * (1.0 - u2) / n).sum(axis=-1))
    mu = np.where(mu < hi, mu, 0.5 * hi)
    step = last = hi
    its = np.zeros(len(rhat), dtype=int)
    active = np.ones(len(rhat), dtype=bool)
    for _ in range(100):  # at most 22 were needed on 2e5 random records
        x, dx = _axis_roots(rhat, n, mu[:, None])
        its += active
        phi = (x * x).sum(axis=-1) - 1.0
        active &= (np.abs(phi) > 1e-14) & (hi - lo > 1e-15 * hi)
        if not active.any():
            break
        lo = np.where(active & (phi > 0), mu, lo)
        hi = np.where(active & (phi < 0), mu, hi)
        dphi = 2.0 * (x * dx).sum(axis=-1)
        newton = np.divide(phi, dphi, out=np.full(len(mu), np.inf), where=dphi < 0)
        trust = (np.abs(newton) < 0.5 * np.abs(last)) & (mu - newton > lo) & (mu - newton < hi)
        last = np.where(active, step, last)
        step = np.where(active, np.where(trust, newton, mu - 0.5 * (lo + hi)), step)
        mu = np.where(active, mu - step, mu)
    r[on_sphere] = x / np.sqrt((x * x).sum(axis=-1))[:, None]
    iterations[on_sphere] = its
    return r, iterations, on_sphere


def _rho_of_bloch(r):
    """Density matrices (..., 2, 2) of Bloch vectors (..., 3)."""
    rho = np.empty(r.shape[:-1] + (2, 2), dtype=complex)
    rho[..., 0, 0] = 0.5 * (1.0 + r[..., 2])
    rho[..., 1, 1] = 0.5 * (1.0 - r[..., 2])
    rho[..., 0, 1] = 0.5 * (r[..., 0] - 1j * r[..., 1])
    rho[..., 1, 0] = 0.5 * (r[..., 0] + 1j * r[..., 1])
    return rho


def mle_tomography(record, reference=None):
    """Physical density matrix maximizing the binomial likelihood.

    The log-likelihood is concave and separable in the Bloch vector r, with
    per-axis maxima at the linear inversion rhat_b = 2 f_b - 1.  So the MLE is
    rhat when |rhat| <= 1 and otherwise the KKT point on the sphere |r| = 1:
    for each multiplier mu the stationary r_b(mu) is a root of a cubic, and a
    monotone 1-D solve on mu makes sum_b r_b(mu)^2 = 1.  This is a batch of
    one through the function the campaign runs on all its sites.
    """
    if any(record.shots[b] < 1 for b in BASES):
        raise ValueError("every basis needs at least one shot")
    r, iterations, _ = _mle_bloch([record])
    rho = _rho_of_bloch(r[0])
    return TomographyResult(
        rho=rho,
        fidelity=None if reference is None else fidelity(rho, reference),
        photons=sum(record.shots.values()),
        loglik=_loglik(r[0], record),
        iterations=int(iterations[0]),
        bloch=r[0],
    )


# ---------------------------------------------------------------------------
# full campaign over a mesh

@dataclass
class FidelityStats:
    mean: float
    median: float
    ci95: tuple
    per_site: np.ndarray
    histogram: tuple
    errors: list = field(default_factory=list)
    boundary_share: float = 0.0

    def to_dict(self):
        counts, edges = self.histogram
        per_site = [
            float(x) if np.isfinite(x) else None for x in self.per_site.ravel()
        ]
        return {
            "mean_fidelity": self.mean,
            "median_fidelity": self.median,
            "ci95": list(self.ci95),
            "per_site": per_site,
            "histogram": {"counts": counts.tolist(), "edges": edges.tolist()},
            "boundary_share": self.boundary_share,
            "errors": [list(map(str, e)) for e in self.errors],
        }


@dataclass
class CampaignResult:
    field: StateField
    stats: FidelityStats


def run_campaign(params, mesh, photons_per_site=DEFAULT_PHOTONS, seed=0,
                 threads=1):
    """Simulated tomography of every mesh site.

    The sites whose passage can be built run in fixed row-major chunks of
    ``SITE_CHUNK``: a chunk's passages are evolved together, each site is
    measured on its own random stream keyed by (seed, row-major site index),
    and the chunk's records go through the MLE of ``mle_tomography`` as one
    batch.  ``threads`` workers (0: one per CPU, never more than there are
    chunks) take whole chunks; numpy releases the interpreter lock in the
    array work.  Chunks do not depend on ``threads``, so every thread count
    gives byte-identical output.  A gapless site keeps the maximally mixed
    placeholder and is listed in ``stats.errors``, in row-major order.
    """
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    n = mesh.n
    sites = list(np.ndindex(n, n, n))
    ok, schedules, refs, errors = [], [], [], []
    for i, site in enumerate(sites):
        k = mesh.site_k(site)
        try:
            schedule, ref = build_schedule(k, params), model.ground_state(k, params)
        except HopfError as err:
            errors.append((site, err))
            continue
        ok.append(i)
        schedules.append(schedule)
        refs.append(ref)
    if not ok:
        raise HopfError("every site of the campaign failed")
    rho = np.tile(0.5 * np.eye(2, dtype=complex), (len(sites), 1, 1))
    fids = np.full(len(sites), np.nan)
    on_sphere = np.zeros(len(sites), dtype=bool)

    def run_chunk(chunk):
        ids = ok[chunk]
        records = [simulate_measurements(u[:, 0], photons_per_site, seed=(seed, i))
                   for i, u in zip(ids, _propagators(schedules[chunk]))]
        r, _, on_sphere[ids] = _mle_bloch(records)
        rho[ids] = _rho_of_bloch(r)
        fids[ids] = [fidelity(x, ref) for x, ref in zip(rho[ids], refs[chunk])]

    chunks = [slice(j, j + SITE_CHUNK) for j in range(0, len(ok), SITE_CHUNK)]
    if threads == 0:
        import os

        threads = os.cpu_count() or 1
    if min(threads, len(chunks)) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(threads, len(chunks))) as pool:
            list(pool.map(run_chunk, chunks))
    else:
        for chunk in chunks:
            run_chunk(chunk)

    field = StateField(mesh, params, rho.reshape(n, n, n, 2, 2),
                       provenance=PROVENANCE_SIMULATED)
    valid = fids[ok]
    edges = np.linspace(0.0, 1.0, 201)
    stats = FidelityStats(
        mean=float(valid.mean()),
        median=float(np.median(valid)),
        ci95=(float(np.percentile(valid, 2.5)), float(np.percentile(valid, 97.5))),
        per_site=fids.reshape(n, n, n),
        histogram=(np.histogram(valid, bins=edges)[0], edges),
        errors=errors,
        boundary_share=float(on_sphere[ok].mean()),
    )
    return CampaignResult(field=field, stats=stats)
