"""Exception types shared across the package."""


class HopfError(Exception):
    """Base class for all domain errors raised by hopfsim."""


class GaplessPoint(HopfError):
    """The Hamiltonian gap closes at a momentum point (|u(k)| ~ 0)."""

    def __init__(self, message, k=None, site=None):
        super().__init__(message)
        self.site = site  # the order of the CLI's JSON detail
        self.k = k


class ChartExhausted(HopfError):
    """A curve passes through the pole neighbourhood of both stereographic charts."""


class OrthogonalNeighbors(HopfError):
    """Neighboring mesh states are (numerically) orthogonal; the mesh is too
    coarse near a gap closing."""

    def __init__(self, message, site=None, axis=None):
        super().__init__(message)
        self.site = site
        self.axis = axis


class NonzeroNetFlux(HopfError):
    """A momentum layer carries nonzero total Berry flux (nonzero slice Chern
    number), so no globally smooth Coulomb-gauge connection exists."""

    def __init__(self, message, axis=None, layer=None, flux=None):
        super().__init__(message)
        self.axis = axis
        self.layer = layer
        self.flux = flux


class NonIntegerFlux(HopfError, ArithmeticError):
    """The total plaquette flux of a closed layer is not an integer, which
    only numerical breakdown can cause."""


class ResolutionTooCoarse(HopfError):
    """Preimage curve segments could not be chained into closed loops."""


class WindingLoops(HopfError, ValueError):
    """A preimage loop winds the torus, so its intrinsic linking number with
    another loop is undefined; ``windings`` holds both loops' integer winding
    vectors."""

    def __init__(self, message, windings=None):
        super().__init__(message)
        self.windings = windings


class InconsistentLinks(HopfError):
    """The entries of a link matrix disagree: two present off-diagonal
    entries differ, or a target is absent while an entry is nonzero.  The
    Hopf invariant does not depend on the targets, so one entry is wrong."""


class CurvesTooClose(HopfError):
    """Two polylines approach closer than the separation tolerance."""


class EmptyInput(HopfError):
    """An operation received an empty collection."""


class NonConvergence(HopfError):
    """Iterative optimisation hit its iteration cap; carries the best iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class UsageError(HopfError, ValueError):
    """An argument outside the range its engine accepts: a mesh size, an h,
    a spin target, a res, an eps, a photon count, a seed or a thread count.
    Each range is checked only by the engine that owns it; the CLI turns the
    error into exit status 2, as it does its own parsing errors.  It is a
    ``ValueError``, as the bare errors it replaces were."""
