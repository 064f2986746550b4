"""Exception types shared across the package.

``ValueError`` is reserved for malformed inputs (wrong shapes, bad
parameters); everything that can only be detected *during* a computation
derives from :class:`NumericalError` so callers (and the CLI) can map it
to a distinct failure class.
"""


class NumericalError(RuntimeError):
    """A computation failed a quantitative integrity check."""


class IntegralityError(NumericalError):
    """A quantity that must be an integer landed too far from one."""


class BranchCutError(NumericalError):
    """An eigenvalue sits on (or too close to) the logarithm's branch cut."""


class TransversalityError(NumericalError):
    """Two Lagrangian planes required to be transversal are not."""


class RefinementError(NumericalError):
    """A discretized path is too coarse to lift unambiguously."""


class DivergenceError(NumericalError):
    """A trajectory left the representable range before the final time."""

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time


class CoarseDivergenceError(RefinementError, DivergenceError):
    """An inexact path ran off after a step whose turn bound reached pi (`flows.flow_path`)."""


class ConjugatePointError(NumericalError):
    """A boundary-value problem hit a conjugate point (vanishing Jacobian)."""
