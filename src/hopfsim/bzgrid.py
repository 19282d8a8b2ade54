"""Discrete Brillouin-zone meshes and sampled ground-state fields.

A mesh is n x n x n with sites k_J = 2*pi*(jx, jy, jz)/n, periodic in every
axis, with k = 0 included (kx/2pi running over 0, 1/n, ..., (n-1)/n).
A StateField holds one state per site, either a pure spinor or a 2x2
density matrix, and knows how to produce Bloch vectors and pure states for
the invariant engines.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from . import model
from .errors import GaplessPoint, UsageError

PROVENANCE_ANALYTIC = "analytic"
PROVENANCE_SIMULATED = "simulated-experiment"

# bound on the unit norm of a spinor and on the physicality of a density matrix
STATE_TOL = 1e-9

# sites per slab of x-planes in the sampler, plaquettes and Coulomb solve;
# a mesh with n <= 25 is one slab
_SLAB_SITES = 2**14


def _x_slabs(n, plane_sites=None):
    """Slices of about _SLAB_SITES sites along the first axis of a grid of n
    planes of ``plane_sites`` sites each (n**2 by default: an n^3 mesh)."""
    step = max(1, _SLAB_SITES // (n**2 if plane_sites is None else plane_sites))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _lanes(sites):
    """Threads that share the pieces of a grid of ``sites`` sites: the calling
    thread and one helper when the grid is more than one slab and the process
    may use two CPUs, else the calling thread alone."""
    return 2 if sites > _SLAB_SITES and _cpus() > 1 else 1


def _map_lanes(fn, items, scratch):
    """[fn(x, s) for x in items], where s is the scratch of the lane that runs
    the item: ``scratch`` holds one entry per lane, made by the caller.  This
    is the package's one thread map.

    The calling thread takes scratch[0], and a helper thread started for the
    call takes each further entry, at most len(items) - 1 of them; every lane
    takes the next item in order until none is left.  Items must write
    disjoint parts of any shared output, so nothing depends on which lane ran
    an item.  If items raise, the exception of the first raising item in
    order propagates once every helper has ended: the one the serial loop
    raises.
    """
    if len(scratch) == 1 or len(items) < 2:
        return [fn(x, scratch[0]) for x in items]
    results, failed = [None] * len(items), {}
    order, lock = iter(range(len(items))), threading.Lock()

    def take():  # the next item, or None once an item has raised
        with lock:
            return None if failed else next(order, None)

    def drain(work):
        for i in iter(take, None):
            try:
                results[i] = fn(items[i], work)
            except BaseException as err:  # re-raised by the calling thread
                with lock:
                    failed[i] = err
                return

    helpers = [threading.Thread(target=drain, args=(work,), name="hopfsim-lane")
               for work in scratch[1:len(items)]]
    for helper in helpers:
        helper.start()
    try:
        drain(scratch[0])
    finally:
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[min(failed)]
    return results


@dataclass(frozen=True)
class MeshSpec:
    """Uniform periodic n x n x n momentum mesh."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise UsageError(f"mesh size n must be an integer, got {self.n!r}")
        if self.n < 4:
            raise UsageError(f"mesh needs n >= 4, got {self.n}")
        if self.n >= 2**20:  # 8 n**3 bytes >= 2**63
            raise UsageError(f"mesh needs n < 2**20 (n**3 float64 values pass numpy's "
                             f"largest array size), got {self.n}")

    def points(self, planes=slice(None)):
        """Mesh momenta of the x-planes ``planes`` (all by default), shape
        (planes, n, n, 3), indexed [jx, jy, jz]."""
        j = 2.0 * np.pi * np.arange(self.n) / self.n
        kx, ky, kz = np.meshgrid(j[planes], j, j, indexing="ij")
        return np.stack([kx, ky, kz], axis=-1)

    def site_k(self, site):
        return 2.0 * np.pi * np.asarray(site, dtype=float) / self.n


def _validate_spinors(psi):
    if np.abs(model.norms(psi) - 1.0).max() > STATE_TOL:
        raise ValueError("spinor entries must be normalized")


def _validate_rho(rho):
    herm = np.abs(rho - np.conj(np.swapaxes(rho, -1, -2))).max()
    if herm > STATE_TOL:
        raise ValueError(f"density matrices not Hermitian (max dev {herm:.2e})")
    tr = np.einsum("...ii->...", rho).real
    if np.abs(tr - 1.0).max() > STATE_TOL:
        raise ValueError("density matrices not unit trace")
    # 2x2 PSD check via det and diagonal
    det = (rho[..., 0, 0] * rho[..., 1, 1] - rho[..., 0, 1] * rho[..., 1, 0]).real
    diag_min = np.minimum(rho[..., 0, 0].real, rho[..., 1, 1].real)
    if det.min() < -STATE_TOL or diag_min.min() < -STATE_TOL:
        raise ValueError("density matrices not positive semidefinite")


# The state conversions take one spinor (2,) or density matrix (2, 2), or a
# grid of either; a grid of spinors (n >= 4 per axis) never ends in (2, 2).

def pure_spinors(states):
    """Per-site pure spinors; for density matrices, the dominant eigenvector."""
    if states.shape[-2:] != (2, 2):
        return states
    vals, vecs = np.linalg.eigh(states)
    return vecs[..., :, -1]  # eigenvector of the largest eigenvalue


def bloch_vectors_of(states):
    """Per-site Pauli expectation values, one 3-vector per state."""
    if states.shape[-2:] != (2, 2):
        a, b = states[..., 0], states[..., 1]
        cross = np.conj(a) * b
        return np.stack(
            [2 * cross.real, 2 * cross.imag, np.abs(a) ** 2 - np.abs(b) ** 2],
            axis=-1,
        )
    r01 = states[..., 0, 1]
    return np.stack(
        [
            2 * r01.real,
            -2 * r01.imag,
            (states[..., 0, 0] - states[..., 1, 1]).real,
        ],
        axis=-1,
    )


@dataclass
class StateField:
    """States sampled on a mesh.

    data has shape (n, n, n, 2) complex for kind "spinor" or (n, n, n, 2, 2)
    for kind "rho".  provenance records whether the entries are analytic
    ground states or reconstructions from the simulated experiment.
    """

    mesh: MeshSpec
    params: model.HopfParams
    data: np.ndarray
    provenance: str = PROVENANCE_ANALYTIC

    def __post_init__(self):
        n = self.mesh.n
        self.data = np.asarray(self.data, dtype=complex)
        if not np.isfinite(self.data).all():
            raise ValueError("state data must be finite")
        if self.data.shape == (n, n, n, 2):
            self.kind = "spinor"
            _validate_spinors(self.data)
        elif self.data.shape == (n, n, n, 2, 2):
            self.kind = "rho"
            _validate_rho(self.data)
        else:
            raise ValueError(f"bad state data shape {self.data.shape} for n={n}")

    @classmethod
    def _of_ground_states(cls, mesh, params, psi):
        """The analytic field of spinors ``psi`` that model.ground_state has
        just gap-checked and normalized, without the checks of a field from
        outside."""
        field = cls.__new__(cls)
        field.mesh, field.params, field.data = mesh, params, psi
        field.provenance, field.kind = PROVENANCE_ANALYTIC, "spinor"
        return field

    @property
    def n(self):
        return self.mesh.n

    def pure_states(self):
        """Per-site pure spinors; for density matrices, the dominant eigenvector."""
        return pure_spinors(self.data)

    def bloch_vectors(self):
        """Per-site Pauli expectation values, shape (n, n, n, 3)."""
        return bloch_vectors_of(self.data)

    def apply_gauge(self, phases):
        """New field with each site's state multiplied by exp(i*phase).

        A pure gauge transformation; every topological quantity must be
        unchanged.  For density matrices this is a no-op by construction.
        """
        phases = np.asarray(phases, dtype=float)
        if phases.shape != (self.n,) * 3:
            raise ValueError("need one phase per site")
        if self.kind == "spinor":
            data = self.data * np.exp(1j * phases)[..., None]
        else:
            data = self.data
        return replace(self, data=data)


def sample_state_field(params, mesh):
    """Analytic ground states on every mesh site.

    One pass over slabs of x-planes checks the gap on the whole mesh, and a
    second writes each slab's ``model.ground_state`` into the field; each
    pass shares its slabs between the lanes of ``_lanes``.

    Raises
    ------
    GaplessPoint
        With the offending site, if the gap closes on the mesh.
    """
    n, slabs = mesh.n, _x_slabs(mesh.n)
    lanes = [None] * _lanes(n**3)

    def least_gap(planes, _):
        mag = model.norms(model.u_of_k(mesh.points(planes), params))  # u itself is not kept
        j = int(np.argmin(mag))
        return mag.flat[j], planes.start * n**2 + j

    least, first = np.inf, None
    for value, site in _map_lanes(least_gap, slabs, lanes):
        if value < least:  # the first minimum of the row-major mesh
            least, first = value, site
    if least < model.GAP_TOL:
        site = tuple(int(x) for x in np.unravel_index(first, (n,) * 3))
        raise GaplessPoint(
            f"gap closes at mesh site {site}, k/2pi="
            f"{(np.asarray(site) / n).tolist()} for h={params.h}",
            k=mesh.site_k(site),
            site=site,
        )
    psi = np.empty((n,) * 3 + (2,), dtype=complex)

    def fill(planes, _):
        psi[planes] = model.ground_state(mesh.points(planes), params)

    _map_lanes(fill, slabs, lanes)
    return StateField._of_ground_states(mesh, params, psi)


# ---------------------------------------------------------------------------
# serialization (field JSON schema and spin-texture rows)

def field_to_dict(f):
    """Field document: mesh size, h, provenance and flat row-major entries.

    ``entries`` is a float array of shape (n**3, 4) for spinors (Re/Im up,
    Re/Im down) or (n**3, 8) for density matrices (row-major 2x2, Re/Im
    interleaved), a view of the field's data. ``hopfsim.cli.dumps`` writes
    it as the list of its rows; for ``json.dumps``, convert it with
    ``.tolist()``.
    """
    entries = np.ascontiguousarray(f.data).reshape(f.n ** 3, -1).view(np.float64)
    return {
        "n": f.n,
        "h": f.params.h,
        "provenance": f.provenance,
        "kind": f.kind,
        "entries": entries,
    }


def field_from_dict(d):
    """StateField of a field document; ValueError, naming the key, for any
    document but a JSON object whose n is an integer (not a bool), h a real
    number (not a bool), kind spinor or rho, provenance analytic or
    simulated-experiment, and entries n**3 rows of 4 (spinor) or 8 (rho)
    reals. Any other key, such as generated_at, is ignored."""
    if not isinstance(d, dict):
        raise ValueError(f"a field document is a JSON object, got {type(d).__name__}")
    missing = [key for key in ("n", "h", "entries") if key not in d]
    if missing:
        raise ValueError(f"field document lacks {', '.join(missing)}")
    n, h, kind = d["n"], d["h"], d.get("kind", "spinor")
    provenance = d.get("provenance", PROVENANCE_ANALYTIC)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"field n must be an integer, got {n!r}")
    if isinstance(h, bool) or not isinstance(h, Real):
        raise ValueError(f"field h must be a real number, got {h!r}")
    if kind not in ("spinor", "rho"):
        raise ValueError(f"unknown field kind {kind!r}; expected 'spinor' or 'rho'")
    if provenance not in (PROVENANCE_ANALYTIC, PROVENANCE_SIMULATED):
        raise ValueError(f"unknown field provenance {provenance!r}; expected "
                         f"{PROVENANCE_ANALYTIC!r} or {PROVENANCE_SIMULATED!r}")
    try:
        params = model.HopfParams(float(h))
    except OverflowError:  # an integer beyond the largest float
        raise ValueError(f"field h is beyond the range of a float, got {h!r}") from None
    mesh, rows = MeshSpec(n), (n**3, 8 if kind == "rho" else 4)
    try:
        entries = np.array(d["entries"], dtype=float, order="C")
    except (TypeError, ValueError):  # ragged, or not numbers
        entries = None
    if entries is None or entries.shape != rows:
        raise ValueError(f"field entries must be {rows[0]} rows of {rows[1]} reals "
                         f"for n={n} and kind {kind!r}")
    # the (Re, Im) pairs viewed as complex, so a signed zero stays as written
    data = entries.view(complex).reshape((n,) * 3 + ((2, 2) if kind == "rho" else (2,)))
    return StateField(mesh, params, data, provenance=provenance)


def load_field(path):
    import json

    with open(path) as fh:
        return field_from_dict(json.load(fh))


def texture_rows(f):
    """Spin texture as (jx, jy, jz, sx, sy, sz) rows, row-major site order."""
    s = f.bloch_vectors().reshape(-1, 3)
    n = f.n
    j = np.indices((n, n, n)).reshape(3, -1).T
    return np.column_stack([j, s])
