"""Exception hierarchy shared by all modules.

``InputError`` covers everything a caller can fix (bad configurations,
points on a hyperplane arrangement, unparsable polynomials).
``InvariantError`` marks violations of internal invariants that should never
fire on valid inputs; the command-line driver maps the two classes to
different exit codes.
"""


class CoamoebaError(Exception):
    """Base class for all library errors."""


class InputError(CoamoebaError):
    """Invalid input; the caller can repair and retry."""


class InvariantError(CoamoebaError):
    """An internal invariant failed; indicates a bug or a bad upstream object."""


class TooLarge(InputError):
    """Exact work or a result would pass a documented size bound."""


# --- configurations and Gale duality ---------------------------------------

class NotSpanning(InputError):
    """Columns (or rows) do not generate the expected lattice."""


class NoAffineHyperplane(InputError):
    """No primitive covector evaluates to 1 on every point of the configuration."""


class ZeroVector(InputError):
    """A vector configuration contains a zero row."""


class EmptyConfiguration(InputError):
    """A vector configuration has no vectors, or vectors in Z^0."""


# --- matroids and fans ------------------------------------------------------

class Disconnected(InputError):
    """Operation requires a connected matroid."""


class NotInTropical(InputError):
    """Weight induces a matroid with loops."""


class LevelSetNotAFlat(InputError):
    """A loopless weight whose level-set chain is not a chain of flats."""


# --- polynomials ------------------------------------------------------------

class PolySyntaxError(InputError):
    """Polynomial text does not match the documented grammar."""


class UnknownVariable(InputError):
    """Variable name not declared for this polynomial."""


# --- Horn-Kapranov and the logarithmic Gauss map ----------------------------

class OnArrangement(InputError):
    """Evaluation point lies on a hyperplane of the arrangement."""

    def __init__(self, label):
        super().__init__(f"point lies on the hyperplane of {label}")
        self.label = label


class NearArrangement(InputError):
    """Floating-point evaluation point is numerically too close to the arrangement."""

    def __init__(self, label):
        super().__init__(f"point is numerically on the hyperplane of {label}")
        self.label = label


class WrongLength(InputError, ValueError):
    """A point or angle tuple has the wrong number of coordinates."""


class SingularPoint(InputError):
    """All logarithmic partial derivatives vanish; the Gauss map is undefined."""


class Defective(InputError):
    """Configuration is defective; the reduced discriminant is not a hypersurface."""


class DimensionNot3(InputError):
    """Operation is implemented only for three-dimensional Gale duals."""


# --- polygonal coamoeba cycles ----------------------------------------------

class ParallelRows(InputError):
    """Zonotope generators must be pairwise non-parallel (merge parallels first)."""


class NonzeroSum(InputError):
    """Vectors (zonotope generators, rows of B) must sum to zero."""


class DegenerateZonotope(InputError):
    """Fewer than two independent generators; the zonotope has no area."""


class NonIntegralDegree(InvariantError):
    """Total cycle area is not an integer multiple of a fundamental domain."""
