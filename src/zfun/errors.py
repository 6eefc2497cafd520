"""Exception types shared across the package.

Every library error derives from :class:`ZfunError`, so callers (and the CLI)
can distinguish contract violations from genuine bugs with one except clause.
"""

from __future__ import annotations


class ZfunError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(ZfunError):
    """A file or inline object does not match the expected JSON shape."""


class BadParameters(ZfunError):
    """Structural preconditions violated (sizes, ranges, duplicate labels)."""


class AxiomViolation(ZfunError):
    """One or more metric axioms fail.

    Carries *every* violation found, each as ``(axiom, witness)`` where
    ``axiom`` is one of ``"identity" | "symmetry" | "positivity" | "triangle"``
    and ``witness`` is the tuple of point labels exhibiting the failure.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        summary = "; ".join(
            f"{axiom} at ({', '.join(witness)})" for axiom, witness in self.violations
        )
        super().__init__(f"metric axioms violated: {summary}")


class DomainMismatch(ZfunError):
    """Maps do not share the domain/codomain the operation requires."""


class SpaceMismatch(ZfunError):
    """Measures or plans live on different spaces than required."""


class TargetMismatch(ZfunError):
    """Step functions do not share the target space the operation requires."""


class UnknownPoint(ZfunError):
    """A label does not name a point of the space at hand."""


class InvalidWeights(ZfunError):
    """Measure weights are negative or do not total one."""


class InfeasibleMass(ZfunError):
    """Transport endpoints carry different total mass."""


class AnchorDiameterNotOne(ZfunError):
    """The anchor (or pad) space does not have diameter exactly one."""


class NotInFamily(ZfunError):
    """A subset is not a member of the fixture's distinguished family."""


class InvalidMetric(ZfunError):
    """A metric supplied for extension is not valid on the stated subset."""


class NotSetwiseInvariant(ZfunError):
    """A self-map does not preserve the designated subset setwise."""


class BadN(ZfunError):
    """The head-length parameter must be a positive integer."""


class ValueOutsideImage(ZfunError):
    """A step-function value cannot be pulled back through the map."""

    def __init__(self, segment: int, value: str):
        self.segment = segment
        self.value = value
        super().__init__(
            f"segment {segment} takes value {value!r} outside the map image"
        )


class SolverFailure(ZfunError):
    """An optimization routine could not certify an optimum (library bug)."""
