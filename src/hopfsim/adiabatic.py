"""Digital twin of the adiabatic-passage tomography experiment.

Per momentum point the simulated run is: build the three-segment microwave
ramp that carries the spin from |0> to the ground state of the normalized
target Hamiltonian, integrate the rotating-frame Schrodinger equation with
exact SU(2) steps, draw photon-shot-noise Pauli measurements, and
reconstruct the density matrix by maximum-likelihood tomography.  A
campaign runs that pipeline as array code over the mesh.  The drive phase
is a frame rotation applied after the evolution, so a passage depends on
its site only through its final (|Omega|, Delta); the ramp-up is shared by
all passages, the detuning ramp by those with one final Delta, and the
ramp-down is evolved once per distinct passage.  The steps are unit
quaternions reduced by a pairwise tree, computed in a workspace of flat
buffers that each campaign worker keeps for the whole campaign (at most
``SITE_CHUNK`` passages x the steps of one segment), so evolving a chunk
allocates no large array.  The MLE is the linear inversion inside the
Bloch ball; outside it, the KKT multiplier of the sphere is found by
bracketed Newton steps with a bisection fallback, at most 100 iterations.
Measurement, reconstruction and scoring run as arrays; per-site
counter-based random streams make campaigns reproducible and independent
of scheduling order.

The photon model is ideal: each photon is one projective sample in its
Pauli basis.  There is no readout contrast, no background count and no
control error, so shot noise is the only noise.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import model
from .bzgrid import (
    PROVENANCE_SIMULATED,
    StateField,
    _validate_rho,
    _validate_spinors,
    bloch_vectors_of,
)
from .errors import GaplessPoint, HopfError, UsageError

OMEGA_MAX = 2.0 * np.pi * 20.83e6  # rad/s, the peak Rabi frequency
SEGMENT_DURATION = 500e-9  # s per linear ramp
SAMPLE_RATE = 8e9  # Hz, waveform sampling
DEFAULT_PHOTONS = 93_000

# Passages evolved together.  A campaign worker's workspace (``_Workspace``)
# holds SITE_CHUNK x steps-per-segment steps, about 2 MB at the 4000 steps of
# a 500 ns segment; larger chunks raise the peak memory and run no faster.
SITE_CHUNK = 8

BASES = ("x", "y", "z")


class _Workspace:
    """Flat buffers that ``_waveform`` and ``_step_product`` fill through
    ``out=``, kept across calls so that a campaign worker evolves all its
    chunks in the same memory instead of faulting fresh arrays in per chunk.
    For m passages of n steps they hold:

    - ``ramps``: three vectors of n values, t / seg and the clipped ramps of
      the waveform;
    - ``steps``: the m n step quaternions, then the even levels of the tree;
    - ``planes``: four float planes of m n values (|Omega|, Delta, |v| and
      sin(theta)), then the odd tree levels and, at its end, the two product
      temporaries.

    Each buffer grows to the largest call it serves, 8 m n + 3 n floats in
    all (m n = SITE_CHUNK x steps per segment in a campaign), and lives as
    long as its owner: the worker of one campaign, or one ``propagator``
    call."""

    def __init__(self):
        self._buffers = {}

    def take(self, name, size):
        """The first ``size`` floats of buffer ``name``, grown if it is shorter."""
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size]

    def planes(self, shape):
        """The four float planes, as views of the given shape."""
        return [p.reshape(shape) for p in self.take("planes", 4 * math.prod(shape)).reshape(4, -1)]


def _waveform(t, seg, omega_peak, omega_final, delta_start, delta_final, work):
    """(|Omega|, Delta) of the three linear segments at times t, broadcast
    with the final controls: the first two planes of ``work``.  The clipped
    ramps depend on t alone, so they are formed on its shape."""
    t = np.asarray(t, dtype=float)
    om, de, _, _ = work.planes(np.broadcast_shapes(t.shape, np.shape(omega_final),
                                                   np.shape(delta_final)))
    x, up, ramp = (r.reshape(t.shape) for r in work.take("ramps", 3 * t.size).reshape(3, -1))
    if seg:
        np.divide(t, seg, out=x)
    else:
        x.fill(3.0)
    np.multiply(omega_peak, np.clip(x, 0.0, 1.0, out=up), out=up)
    np.clip(np.subtract(x, 2.0, out=ramp), 0.0, 1.0, out=ramp)
    np.add(up, np.multiply(omega_final - omega_peak, ramp, out=om), out=om)
    np.clip(np.subtract(x, 1.0, out=ramp), 0.0, 1.0, out=ramp)
    np.add(delta_start, np.multiply(delta_final - delta_start, ramp, out=de), out=de)
    return om, de


@dataclass(frozen=True)
class RampSchedule:
    """Piecewise-linear control waveform (|Omega|, phi, Delta) for one passage.

    Three equal segments: transverse ramp-up at fixed detuning, detuning ramp,
    transverse ramp-down to the target; phi is constant throughout.  The
    passage is integrated on a uniform grid at ``sample_dt`` spacing.
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

    def controls(self, t):
        """(|Omega|, phi, Delta) at times t (piecewise-linear interpolation)."""
        om, de = _waveform(t, self.segment_duration, self.omega_peak, self.omega_final,
                           self.delta_start, self.delta_final, _Workspace())
        return om[()], np.full_like(om, self.phi), de[()]  # a scalar t gives scalars


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
    if model.norms(u) < model.GAP_TOL:
        raise _gapless(k)
    omega_final, delta_final, phi = map(float, _final_controls(u))
    return RampSchedule(phi=phi, delta_start=-OMEGA_MAX, delta_final=delta_final,
                        omega_peak=OMEGA_MAX, omega_final=omega_final,
                        segment_duration=segment_duration)


def _gapless(k):
    return GaplessPoint(f"cannot build a passage onto a gapless point k={k}", k=k)


def _final_controls(u):
    """(omega_final, delta_final, phi) of the passages onto the ground states
    of u (..., 3): u scaled so max(|transverse|, |uz|) is OMEGA_MAX."""
    trans = np.hypot(u[..., 0], u[..., 1])
    scale = OMEGA_MAX / np.maximum(trans, np.abs(u[..., 2]))
    return trans * scale, u[..., 2] * scale, np.arctan2(u[..., 1], u[..., 0])


# ---------------------------------------------------------------------------
# evolution: an SU(2) step is a unit quaternion q, U = q0 - i (q1, q2, q3).sigma,
# held as its Cayley-Klein pair (a, b) = (q0 - i q3, q2 - i q1), two complex
# numbers (4 reals), so that U = [[a, -b*], [b, a*]]

def _qmul(x, y, out=None, tmp=None):
    """Quaternion product x y (the unitary of x after y); pairs on axis 0.
    Written into ``out``, with the two halves of ``tmp`` as scratch for
    conj(.) and its product: a complex product written over its own operand
    can round differently.  New arrays when they are not given."""
    (a, b), (c, d) = x, y
    if out is None:
        out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    conj, prod = np.empty_like(out) if tmp is None else tmp
    np.subtract(np.multiply(a, c, out=out[0]),
                np.multiply(np.conjugate(b, out=conj), d, out=prod), out=out[0])
    np.add(np.multiply(b, c, out=out[1]),
           np.multiply(np.conjugate(a, out=conj), d, out=prod), out=out[1])
    return out


def _step_product(t, dt, seg, omega_peak, omega_final, delta_start, delta_final, work):
    """Time-ordered product of the exact steps exp(-i dt (om sx + de sz)) at
    the times t (last axis, latest last), with (om, de) = _waveform(t, ...).

    Every array lives in the workspace ``work``: the steps, then a pairwise
    tree whose levels alternate between the steps buffer and the planes (an
    odd first step waits for the next level).  The pairs (2, ...) are copied
    out, so nothing returned aliases ``work``."""
    om, de = _waveform(t, seg, omega_peak, omega_final, delta_start, delta_final, work)
    batch = om.shape[:-1]
    if om.shape[-1] == 0:  # no steps: the identity
        identity = np.zeros((2,) + batch, dtype=complex)
        identity[0] = 1.0
        return identity
    _, _, vnorm, sinc = work.planes(om.shape)
    np.hypot(om, de, out=vnorm)
    steps = work.take("steps", 4 * om.size).view(complex)
    q = steps.reshape((2,) + om.shape)
    np.multiply(vnorm, dt, out=sinc)  # theta, then -sin(theta)/|v|
    np.cos(sinc, out=q[0].real)
    np.sin(sinc, out=sinc)
    np.divide(sinc, vnorm, out=sinc, where=vnorm > 0)
    np.negative(sinc, out=sinc)
    np.multiply(de, sinc, out=q[0].imag)
    np.multiply(om, sinc, out=q[1].imag)
    q[1].real = 0.0
    # the planes are free from here on: odd levels from the start, the two
    # product temporaries at the end (they fit: 2 ceil(n/2) + 2 floor(n/2) = 2n)
    planes = work.take("planes", 4 * om.size).view(complex)
    buffers, m = (planes, steps), math.prod(batch)
    while q.shape[-1] > 1:
        odd, pairs = q.shape[-1] % 2, q.shape[-1] // 2
        nxt = buffers[0][:2 * m * (odd + pairs)].reshape((2,) + batch + (odd + pairs,))
        nxt[..., :odd] = q[..., :odd]
        _qmul(q[..., odd + 1::2], q[..., odd::2], nxt[..., odd:],
              planes[planes.size - 2 * m * pairs:].reshape((2,) + batch + (pairs,)))
        q, buffers = nxt, buffers[::-1]
    return q[..., 0].copy()


@lru_cache(maxsize=8)
def _ramp_up(omega_peak, delta_start, seg, dt, nsteps):
    """Product of the first ``nsteps`` steps, all in segment 1, which depends
    on no final control: one pair shared by every passage of a campaign."""
    t = (np.arange(nsteps) + 0.5) * dt
    return tuple(_step_product(t, dt, seg, omega_peak, omega_peak, delta_start, delta_start,
                               _Workspace()))


def _bounds(seg, dt):
    """(b1, b2, nsteps): segments 1-3 hold the steps [0, b1), [b1, b2) and
    [b2, nsteps), each step in the segment that holds its midpoint.  Raises
    ValueError unless dt is finite and > 0 and seg finite and >= 0."""
    if not 0 < dt < np.inf:
        raise ValueError(f"step size dt must be finite and > 0, got {dt}")
    if not 0 <= seg < np.inf:
        raise ValueError(f"segment duration must be finite and >= 0, got {seg}")
    nsteps = int(round(3.0 * seg / dt))
    return (*(min(max(int(np.ceil(j * seg / dt - 0.5)), 0), nsteps) for j in (1, 2)), nsteps)


def _detuning_ramps(delta_final, seg, dt, omega_peak, delta_start, work):
    """Pairs (2, m) of segments 1-2 onto the detunings (m,): |Omega| stays
    omega_peak through segment 2, so passages that share a detuning share them."""
    b1, b2, _ = _bounds(seg, dt)
    t = (np.arange(b1, b2) + 0.5) * dt
    q = _step_product(t, dt, seg, omega_peak, omega_peak, delta_start, delta_final[:, None], work)
    return _qmul(q, np.array(_ramp_up(omega_peak, delta_start, seg, dt, b1))[:, None])


def _ramp_downs(q, omega_final, delta_final, seg, dt, omega_peak, delta_start, work):
    """Normalized pairs (2, m): segment 3 onto the final controls (m,) after q."""
    _, b2, nsteps = _bounds(seg, dt)
    t = (np.arange(b2, nsteps) + 0.5) * dt
    q = _qmul(_step_product(t, dt, seg, omega_peak, omega_final[:, None],
                            delta_start, delta_final[:, None], work), q)
    return q / np.sqrt((q.real**2 + q.imag**2).sum(axis=0))  # rounding drifts |q| ~1e-12


def _propagators(omega_final, delta_final, seg=SEGMENT_DURATION, dt=1.0 / SAMPLE_RATE,
                 omega_peak=OMEGA_MAX, delta_start=-OMEGA_MAX, workers=1):
    """Normalized Cayley-Klein pairs (a, b), shape (2, m), of the total
    unitaries at phi = 0 of passages that share segment 1 (timing, peak Rabi
    frequency and start detuning) and end at the final controls (m,).  The
    drive phase is applied after: U_phi = Rz(phi) U_0 Rz(-phi) turns b by
    exp(i phi).

    Segments 1-2 are evolved once per distinct final detuning, then segment
    3 once per passage, both in fixed chunks of ``SITE_CHUNK``.  ``workers``
    threads take whole chunks, and a free list hands each chunk one of
    ``workers`` workspaces, so the call reuses that many for all its chunks.
    Chunks do not depend on ``workers``, so neither do the bytes."""
    shared = (seg, dt, omega_peak, delta_start)
    detunings, ramp = np.unique(delta_final, return_inverse=True)
    free = [_Workspace() for _ in range(workers)]

    def chunks(x):
        return np.split(x, range(SITE_CHUNK, x.shape[-1], SITE_CHUNK), axis=-1)

    def on_workspace(stage, *args):  # the pool runs at most ``workers`` at once
        work = free.pop()
        try:
            return stage(*args, *shared, work)
        finally:
            free.append(work)

    if workers > 1:  # imported only when used: its threading and queue add ~0.6 MB RSS
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        ramps = np.concatenate(list(run(partial(on_workspace, _detuning_ramps),
                                        chunks(detunings))), axis=1)[:, ramp]
        return np.concatenate(list(run(partial(on_workspace, _ramp_downs), chunks(ramps),
                                       chunks(omega_final), chunks(delta_final))), axis=1)


def propagator(schedule, dt=None):
    """Total unitary of a schedule from midpoint-sampled exact SU(2) steps."""
    s = schedule
    dt = s.sample_dt if dt is None else dt
    if dt > s.sample_dt * (1 + 1e-12):
        raise ValueError(f"dt={dt} exceeds the schedule sampling interval {s.sample_dt}")
    a, b = _propagators(np.array([s.omega_final]), np.array([s.delta_final]),
                        s.segment_duration, dt, s.omega_peak, s.delta_start)
    b = b * np.exp(1j * np.array([s.phi]))  # the campaign's rotation, on a batch of one
    return np.stack([a, -b.conj(), b, a.conj()], axis=-1).reshape(2, 2)


def evolve(schedule, initial, dt=None):
    """Final state of the passage; exactly norm-preserving per step."""
    initial = np.asarray(initial, dtype=complex)
    _validate_spinors(initial)
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
    """Equal thirds across the x, y, z bases, remainder assigned to z; below 3
    photons, or beyond 2**63 - 1 shots per basis, raises UsageError."""
    photons = int(photons)
    if not 3 <= photons <= 3 * (2**63 - 1):
        raise UsageError(f"need 3 to 3 * (2**63 - 1) photons, got {photons}")
    third = photons // 3
    return {"x": third, "y": third, "z": photons - 2 * third}


def _stream_key(seed):
    """Philox key of ``seed``, an int or an int pair, each in [0, 2**64 - 1]."""
    key = tuple(int(x) for x in (seed if isinstance(seed, (tuple, list)) else (seed, 0)))
    if not all(0 <= x < 2**64 for x in key):
        raise UsageError(f"seed must lie in [0, 2**64 - 1], got {seed}")
    return key


def _draw(bloch, n, keys):
    """Successes (m, 3) of n (3,) shots in the bases of ``BASES`` for Bloch
    vectors (m, 3), row j on the Philox stream keyed by keys[j]."""
    n = [int(x) for x in n]
    bits = np.random.Philox(key=0)
    fresh = bits.state  # counter 0, empty buffer: the state Philox(key=...) starts in
    rng = np.random.Generator(bits)
    successes = []
    for key, p in zip(keys, np.clip((1.0 + bloch) / 2.0, 0.0, 1.0).tolist()):
        fresh["state"]["key"] = np.array(key, dtype=np.uint64)
        bits.state = fresh
        successes.append([rng.binomial(nb, pb) for nb, pb in zip(n, p)])
    return np.array(successes, dtype=np.int64).reshape(bloch.shape)


def simulate_measurements(state, photons, seed=0):
    """Binomial photon counts in the three Pauli bases, shots split as by
    ``split_photons``.

    Each photon is an ideal projective sample in its basis: no readout
    contrast, no background counts and no control error enter the draw.
    Success probability per basis is (1 + <sigma_basis>)/2; the draw is a
    counter-based stream keyed by ``seed`` (an int or an int pair), so equal
    keys reproduce identical records regardless of call order.  A spinor off
    unit norm or a 2x2 that is not a density matrix raises ValueError; a seed
    outside [0, 2**64 - 1], like a photon count ``split_photons`` refuses,
    raises UsageError.
    """
    shots = split_photons(photons)
    state = np.asarray(state, dtype=complex)
    if state.shape == (2,):
        _validate_spinors(state)
    elif state.shape == (2, 2):
        _validate_rho(state)
    else:
        raise ValueError(f"state must be a spinor or a 2x2 density matrix, got {state.shape}")
    key = _stream_key(seed)
    successes = _draw(bloch_vectors_of(state)[None], list(shots.values()), [key])[0].tolist()
    return MeasurementRecord(shots=shots, successes=dict(zip(BASES, successes)), key=key)


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


def _mle_bloch(successes, shots):
    """MLE Bloch vectors of successes of shots, (m, 3) each: (r, iterations, on_sphere).

    Off the ball, sum_b r_b(mu)^2 falls monotonically through 1.  Newton steps
    on mu stay in a bracket [lo, hi] and give way to bisection when they would
    leave it or not halve the step before last (a saturated axis puts a kink
    at mu = n_b/4, where plain Newton cycles); hi = |n|/2 as |r_b| <=
    n_b/(2 mu).  A converged site stops changing, so its result does not
    depend on the rest of the batch.
    """
    s, n = np.broadcast_arrays(np.asarray(successes, dtype=float), np.asarray(shots, dtype=float))
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
    s, n = record.successes, record.shots
    if not all(n[b] >= 1 and isinstance(s[b], (int, np.integer)) and 0 <= s[b] <= n[b]
               for b in BASES):
        raise ValueError("every basis needs at least one shot and integer successes in "
                         f"[0, shots], got successes {s} of shots {n}")
    r, iterations, _ = _mle_bloch([[s[b] for b in BASES]], [[n[b] for b in BASES]])
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
        per_site = [float(x) if np.isfinite(x) else None for x in self.per_site.ravel()]
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

    u(k) is evaluated once over the mesh.  Segments 1-2 of a passage depend
    only on its final detuning, so each distinct detuning is evolved once,
    then segment 3 once per distinct final-control pair (omega_final,
    delta_final), both in fixed chunks of ``SITE_CHUNK``; every site takes
    its passage's state rotated by its own drive phase.  The states are
    validated and measured as one batch, each site on its own random stream
    keyed by (seed, row-major site index); the MLE of ``mle_tomography`` and
    the fidelities run as arrays.  ``threads`` workers (0: one per CPU, never
    more than there are passage chunks) take whole chunks; numpy releases
    the interpreter lock in the array work.  Each worker evolves all its
    chunks of both stages in one workspace of ``SITE_CHUNK`` x steps per
    segment (about 2 MB), which lives for the campaign and is dropped when
    it returns.  Chunks do not depend on
    ``threads``, so every thread count gives byte-identical output.  A
    gapless site keeps the maximally mixed placeholder and is listed in
    ``stats.errors``, in row-major order.
    """
    if threads < 0:
        raise UsageError(f"threads must be >= 0, got {threads}")
    shots = list(split_photons(photons_per_site).values())
    seed = _stream_key(int(seed))[0]
    n = mesh.n
    k = mesh.points().reshape(-1, 3)
    u = model.u_of_k(k, params)
    gapless = model.norms(u) < model.GAP_TOL
    errors = [(site, _gapless(mesh.site_k(site)))
              for site in map(tuple, np.argwhere(gapless.reshape(n, n, n)).tolist())]
    if gapless.all():
        raise HopfError("every site of the campaign failed")
    ok = np.flatnonzero(~gapless)
    omega_final, delta_final, phi = _final_controls(u[ok])
    passages, inverse = np.unique(np.stack([omega_final, delta_final], axis=-1), axis=0,
                                  return_inverse=True)
    workers = min(threads or os.cpu_count() or 1, -(-len(passages) // SITE_CHUNK))
    a, b = _propagators(passages[:, 0], passages[:, 1], workers=workers)[:, inverse]
    states = np.stack([a, b * np.exp(1j * phi)], axis=-1)
    _validate_spinors(states)
    successes = _draw(bloch_vectors_of(states), shots, ((seed, i) for i in ok.tolist()))
    r, _, on_sphere = _mle_bloch(successes, shots)
    rho = np.tile(0.5 * np.eye(2, dtype=complex), (n**3, 1, 1))
    rho[ok] = _rho_of_bloch(r)
    ref = model.ground_state(k[ok], params)
    fids = np.full(n**3, np.nan)
    fids[ok] = np.real(np.conj(ref)[:, None, :] @ rho[ok] @ ref[:, :, None])[:, 0, 0]

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
        boundary_share=float(on_sphere.mean()),
    )
    return CampaignResult(field=field, stats=stats)
