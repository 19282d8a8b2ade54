"""Discrete Brillouin-zone meshes and sampled ground-state fields.

A mesh is n x n x n with sites k_J = 2*pi*(jx, jy, jz)/n, periodic in every
axis, with k = 0 included (kx/2pi running over 0, 1/n, ..., (n-1)/n).
A StateField holds one state per site, either a pure spinor or a 2x2
density matrix, and knows how to produce Bloch vectors and pure states for
the invariant engines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model
from .errors import EmptyInput, GaplessPoint

PROVENANCE_ANALYTIC = "analytic"
PROVENANCE_SIMULATED = "simulated-experiment"

# bound on the unit norm of a spinor and on the physicality of a density matrix
STATE_TOL = 1e-9


@dataclass(frozen=True)
class MeshSpec:
    """Uniform periodic n x n x n momentum mesh."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"mesh needs n >= 4, got {self.n}")

    @property
    def spacing(self):
        return 2.0 * np.pi / self.n

    def points(self):
        """All mesh momenta, shape (n, n, n, 3), indexed [jx, jy, jz]."""
        j = 2.0 * np.pi * np.arange(self.n) / self.n
        kx, ky, kz = np.meshgrid(j, j, j, indexing="ij")
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

    @property
    def n(self):
        return self.mesh.n

    def site_state(self, site):
        jx, jy, jz = site
        return self.data[jx, jy, jz]

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

    Raises
    ------
    GaplessPoint
        With the offending site, if the gap closes on the mesh.
    """
    k = mesh.points()
    u = model.u_of_k(k, params)
    mag = model.norms(u)
    if mag.min() < model.GAP_TOL:
        site = tuple(int(x) for x in np.unravel_index(int(np.argmin(mag)), mag.shape))
        raise GaplessPoint(
            f"gap closes at mesh site {site}, k/2pi="
            f"{(np.asarray(site) / mesh.n).tolist()} for h={params.h}",
            k=mesh.site_k(site),
            site=site,
        )
    return StateField(mesh, params, model.ground_state(k, params))


def coverage_fraction(vectors, bins):
    """Fraction of equal-area sphere cells hit by at least one Bloch vector.

    The sphere is partitioned into latitude bands uniform in z (equal area),
    each subdivided uniformly in longitude; with ``rings * sectors = bins``
    every cell has area 4*pi/bins.

    Raises
    ------
    EmptyInput
        If no vectors are supplied.
    """
    vectors = np.asarray(vectors, dtype=float).reshape(-1, 3)
    if vectors.size == 0:
        raise EmptyInput("coverage_fraction needs at least one vector")
    if bins < 8:
        raise ValueError(f"bins must be >= 8, got {bins}")
    norms = np.linalg.norm(vectors, axis=-1)
    if np.abs(norms - 1.0).max() > 1e-6:
        raise ValueError("coverage_fraction expects unit vectors")

    rings = next(r for r in range(int(np.sqrt(bins)), 0, -1) if bins % r == 0)
    sectors = bins // rings
    iz = np.clip(((vectors[:, 2] + 1.0) / 2.0 * rings).astype(int), 0, rings - 1)
    phi = np.arctan2(vectors[:, 1], vectors[:, 0])
    ip = np.clip(((phi + np.pi) / (2 * np.pi) * sectors).astype(int), 0, sectors - 1)
    hit = np.unique(iz * sectors + ip)
    return hit.size / bins


# ---------------------------------------------------------------------------
# serialization (field JSON schema and spin-texture rows)

def field_to_dict(f):
    """JSON-ready dict: mesh size, h, provenance and flat row-major entries.

    Spinor entries are 4 reals (Re/Im up, Re/Im down); density matrices are
    8 reals (row-major 2x2, Re/Im interleaved).
    """
    flat = f.data.reshape(f.n ** 3, -1)
    entries = np.column_stack([flat.real, flat.imag]).reshape(f.n ** 3, 2, -1)
    entries = np.moveaxis(entries, 1, 2).reshape(f.n ** 3, -1)
    return {
        "n": f.n,
        "h": f.params.h,
        "omega": f.params.omega,
        "provenance": f.provenance,
        "kind": f.kind,
        "entries": entries.tolist(),
    }


def field_from_dict(d):
    n = int(d["n"])
    entr = np.asarray(d["entries"], dtype=float)
    cplx = entr[:, 0::2] + 1j * entr[:, 1::2]
    if d.get("kind", "spinor") == "rho":
        data = cplx.reshape(n, n, n, 2, 2)
    else:
        data = cplx.reshape(n, n, n, 2)
    return StateField(
        MeshSpec(n),
        model.HopfParams(float(d["h"]), float(d.get("omega", 1.0))),
        data,
        provenance=d.get("provenance", PROVENANCE_ANALYTIC),
    )


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
