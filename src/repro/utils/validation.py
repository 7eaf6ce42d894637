"""Eager argument validation helpers.

The distributed algorithms in this library have strict divisibility
requirements (cyclic layouts over ``c x d x c`` grids, power-of-two recursion
in CFR3D).  Failing eagerly with a precise message at the API boundary is far
cheaper to debug than a shape error five recursion levels deep, so every
public entry point funnels its checks through these helpers.
"""

from __future__ import annotations

from typing import Optional


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with *message* unless *condition* holds."""
    if not condition:
        raise ValueError(message)


class ValidationError(ValueError):
    """A malformed *request*: wrong field, wrong type, unparseable value.

    Raised by the boundary parsers that build :class:`~repro.plan.ProblemSpec`
    / :class:`~repro.costmodel.params.MachineSpec` /
    :class:`~repro.plan.objective.Objective` objects from untrusted JSON
    (the serving layer, ``--machine-file``, study spec files).  Unlike a
    bare ``KeyError`` / ``TypeError`` traceback, it names the offending
    field so the error can surface as an HTTP 400 JSON body or a clean
    one-line CLI message.
    """

    def __init__(self, message: str, *, field: Optional[str] = None):
        self.field = field
        super().__init__(message)

    def __str__(self) -> str:
        message = super().__str__()
        if self.field:
            return f"{self.field}: {message}"
        return message

    def to_dict(self) -> dict:
        """The HTTP 400 error-body form: ``{"field": ..., "message": ...}``."""
        return {"field": self.field, "message": ValueError.__str__(self)}


def validated(field: str, build, *args, **kwargs):
    """Run *build*; re-raise any failure as a field-labelled ValidationError.

    The boundary-parsing idiom: ``validated("machine",
    MachineSpec.from_dict, data)`` converts the constructor's
    ``ValueError`` / ``TypeError`` / ``KeyError`` into a
    :class:`ValidationError` carrying the request-field name.  An inner
    :class:`ValidationError` keeps its own (more precise) field.
    """
    try:
        return build(*args, **kwargs)
    except ValidationError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        # str(KeyError) wraps the message in repr quotes; unwrap it.
        if isinstance(exc, KeyError) and exc.args:
            message = str(exc.args[0])
        else:
            message = str(exc) or type(exc).__name__
        raise ValidationError(message, field=field) from exc


def check_positive_int(value: int, name: str) -> int:
    """Validate that *value* is a positive ``int`` and return it.

    Booleans are rejected (``True`` is an ``int`` subclass but is almost
    always a bug when passed as a dimension).
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def is_power_of_two(value: int) -> bool:
    """Return ``True`` iff *value* is a positive integral power of two."""
    return isinstance(value, int) and not isinstance(value, bool) and value > 0 and (value & (value - 1)) == 0
