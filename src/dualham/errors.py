"""Exception types shared across the package."""


class DualhamError(Exception):
    """Base class for all library errors."""


# --- embedded graph construction ---

class AsymmetricAdjacency(DualhamError):
    """u lists v as a neighbour but v does not list u."""


class MultiEdgeOrLoop(DualhamError):
    """A rotation contains a repeated neighbour or a self-loop."""


class NonPlanarEmbedding(DualhamError):
    """Face tracing contradicts Euler's formula."""


class Disconnected(DualhamError):
    """The graph is not connected."""


class NotTriangulation(DualhamError):
    """A face that should be a triangle is not one."""


class NotEvenTriangulation(DualhamError):
    """Not a simple even plane triangulation on >= 4 vertices."""


class DegreeBelowFour(DualhamError):
    """A triangulation vertex has degree below 4."""


# --- bipartite / mod-4 structure ---

class NotBipartite(DualhamError):
    """An odd cycle prevents a 2-typing."""


class CycleCapExceeded(DualhamError):
    """Simple-cycle enumeration exceeded the configured cap; the result is unknown."""


class NoCutPath(DualhamError):
    """No path of the graph satisfies the cut-path condition."""


class NotInFamilyH(DualhamError):
    """Graph has a cycle of length not congruent to 0 mod 4."""


class NotOn4Cycle(DualhamError):
    """The two given vertices are not the opposite pair of any 4-cycle."""


# --- partition machinery ---

class BadEdge(DualhamError, ValueError):
    """The chosen edge, given with its ends in either order, is not one the
    construction can keep or avoid: not an edge, or with no big class-3 end."""


class CaseUnmatched(DualhamError):
    """An instance fell outside a case analysis that should be exhaustive."""


class ConditionViolated(DualhamError):
    """An incremental colouring-extension condition failed.

    Attributes:
        step: index of the path step at which the audit failed.
        which: name of the violated condition.
    """

    def __init__(self, step, which, message=""):
        super().__init__(message or f"condition {which!r} violated at step {step}")
        self.step = step
        self.which = which


class ConstraintInvalid(DualhamError):
    """Seed sets fail the tree-partition preconditions."""


class BudgetExceeded(DualhamError):
    """An enumeration reached its budget before it finished; the result is unknown."""


class SearchExhausted(DualhamError):
    """Complete backtracking found no tree partition; potential counterexample."""


class NotTreePartition(DualhamError):
    """A claimed partition does not induce two trees."""


class NotHamilton(DualhamError):
    """A claimed cycle is not a Hamilton cycle of the graph."""


class HComponentNot2Connected(DualhamError):
    """A component of the big-vertex hypothesis graph is not 2-connected."""


# --- generators ---

class SizeTooSmall(DualhamError):
    """Generator parameter below the documented minimum."""


class SizeOutOfRange(DualhamError):
    """Generator parameter outside the documented desk-scale bounds."""


class NoneFound(DualhamError):
    """Filtered search produced no instance."""


# --- cli ---

class IoError(DualhamError):
    """Input file could not be read."""


class ParseError(DualhamError):
    """Input file is not a valid graph description."""
