"""Exception types shared by all latspace modules."""


class LatspaceError(Exception):
    """Base class; `code` is the stable machine-readable error name."""

    code = "Error"


class NotAntisymmetric(LatspaceError):
    code = "NotAntisymmetric"


class NotALattice(LatspaceError):
    code = "NotALattice"


class InvalidElement(LatspaceError):
    code = "InvalidElement"


class TooLarge(LatspaceError):
    code = "TooLarge"


class LatticeMismatch(LatspaceError):
    code = "LatticeMismatch"


class NotASpaceFunction(LatspaceError):
    code = "NotASpaceFunction"


class NotDistributive(LatspaceError):
    code = "NotDistributive"


class UnknownAgent(LatspaceError):
    code = "UnknownAgent"


class UnknownProp(LatspaceError):
    code = "UnknownProp"


class DimMismatch(LatspaceError):
    code = "DimMismatch"


class EmptyStructuringElement(LatspaceError):
    code = "EmptyStructuringElement"


class FormatError(LatspaceError):
    code = "FormatError"
