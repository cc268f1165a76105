"""Exception types shared across the toolkit.

All errors raised by regfman derive from :class:`RegfmanError`, so callers
can distinguish library failures from programming errors.
"""


class RegfmanError(Exception):
    """Base class for all regfman errors."""


class ShapeError(RegfmanError):
    """Operands have incompatible variable counts, orders or dimensions."""


class SingularInputError(RegfmanError):
    """An inversion or square root was requested at a singular point
    (vanishing constant term, degenerate Gram matrix, ...)."""


class RegularityError(RegfmanError):
    """A matrix or multiplication operator required to be regular is not."""


class ClusteringAmbiguityError(RegfmanError):
    """Eigenvalue gaps are too close to the clustering tolerance to decide
    the multiplicity structure reliably."""


class SpectrumError(RegfmanError):
    """A Jordan spectrum violates the regularity constraints (repeated
    eigenvalues, non-positive block size, ...)."""


class NoIsomorphismError(RegfmanError):
    """The two germs are not isomorphic (conjugacy classes differ)."""


class ScopeError(RegfmanError):
    """The operation is defined only on a restricted class of inputs
    (e.g. single nilpotent blocks, constant multiplication)."""


class ChartDegeneracyError(RegfmanError):
    """The deformation chart lost frame independence."""


class NotPrimitiveError(RegfmanError):
    """The selected section does not identify the tangent bundle with the
    deformation bundle."""


class HomogeneityError(RegfmanError):
    """The section is not an eigenvector of the residue-at-infinity
    endomorphism for the requested weight."""


class DegenerateMetricError(RegfmanError):
    """A metric is degenerate at the base point."""


class ValidationError(RegfmanError):
    """Initial data violate the admissibility conditions.

    ``report`` holds the validation report of the rejected data.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class ConstructionInconsistencyError(RegfmanError):
    """An internally guaranteed construction produced residuals beyond
    tolerance; this signals a bug, not a mathematical obstruction."""


class DocumentError(RegfmanError):
    """A problem document is malformed.

    ``field`` holds a ``/``-separated path to the offending entry.
    """

    def __init__(self, message, field=""):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
