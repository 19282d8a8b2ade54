"""Exception types shared across the package."""


class HopfError(Exception):
    """Base class for all domain errors raised by hopfsim."""


class GaplessPoint(HopfError):
    """The Hamiltonian gap closes at a momentum point (|u(k)| ~ 0)."""

    def __init__(self, message, k=None, site=None):
        super().__init__(message)
        self.k = k
        self.site = site


class DegenerateEta(HopfError):
    """Both complex components of the torus -> S3 map vanish."""


class PoleSingular(HopfError):
    """Stereographic projection evaluated at (or too close to) its pole."""


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


class CurvesTooClose(HopfError):
    """Two polylines approach closer than the separation tolerance."""


class NotClosed(HopfError):
    """Operation requires closed polylines."""


class EmptyInput(HopfError):
    """An operation received an empty collection."""


class NonConvergence(HopfError):
    """Iterative optimisation hit its iteration cap; carries the best iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class UsageError(HopfError):
    """Invalid command-line configuration (maps to exit status 2)."""
