"""Exception hierarchy shared across the package."""


class JCRError(Exception):
    """Base class for all errors raised by this package."""


class InputError(JCRError):
    """Malformed or inconsistent user input (files, shapes, lengths)."""


class LengthMismatch(InputError):
    pass


class TooFewPoses(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class MissingView(InputError):
    pass


class EmptyCloud(InputError):
    pass


class SingleClass(InputError):
    pass


class DegenerateBounds(InputError):
    pass


class DegenerateGeometry(JCRError):
    """The data cannot determine the quantity being estimated."""


class DegenerateMatrix(DegenerateGeometry):
    pass


class DegenerateMotion(DegenerateGeometry):
    pass


class RankDeficientC(DegenerateGeometry):
    """The stacked translation-scale system cannot determine all unknowns."""


class ScaleAtBound(RankDeficientC):
    """The scale direction of the system is flat, or the scale is out of range."""


class DisconnectedGraph(DegenerateGeometry):
    pass


class InsufficientDiversity(DegenerateGeometry):
    pass


class NonConvergence(JCRError):
    """An iterative solve hit its budget without meeting tolerance."""


class UncalibratedInput(JCRError):
    """A downstream stage received a calibration that did not converge."""
