"""Exception types shared by all latspace modules, and the JSON input checks
that raise them."""

import json


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


# -- JSON input shared by every loader -----------------------------------------
# A label is always a JSON string; nothing is coerced.  Each shape refusal is
# one InvalidElement naming the entry (`what`) and, cut to 60 characters, the value.


def read_json(path):
    """The JSON document in a UTF-8 file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # bad JSON or UTF-8, an integer past Python's digit limit,
        raise FormatError(str(exc)) from None  # or a path that holds NUL or a lone surrogate


def json_object(value, what: str) -> dict:
    """A JSON object; an array in its place is refused, not half-read."""
    if not isinstance(value, dict):
        raise InvalidElement(f"{what} must be an object, got {value!r:.60}")
    return value


def json_list(value, what: str, *, length: int | None = None, item: type | None = None) -> list:
    """A JSON array, of `length` entries and of `item` values when given.
    Strings are refused: iterating one would split it into characters."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f" of {length} entries"
        raise InvalidElement(f"{what} must be a list{size}, got {value!r:.60}")
    if item is not None and not all(isinstance(x, item) for x in value):
        bad = next(x for x in value if not isinstance(x, item))
        raise InvalidElement(f"{what} must hold only {item.__name__} values, got {bad!r:.60}")
    return value


def json_pairs(value, what: str) -> list:
    """A JSON array of two-string arrays, checked in one pass."""
    if not isinstance(value, list) or not all(
        isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and isinstance(p[1], str)
        for p in value
    ):
        raise InvalidElement(f"{what} must be a list of two-string lists, got {value!r:.60}")
    return value
