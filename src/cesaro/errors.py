"""Exception types shared across the package."""


class CesaroError(Exception):
    """Base class for all errors raised by this package."""


def _with_details(message, details):
    if not details:
        return message
    extra = ", ".join(f"{k}={v}" for k, v in sorted(details.items()))
    return f"{message} ({extra})"


class BudgetExceededError(CesaroError):
    """A configured resource budget (kernel cache, term cap, iteration cap) was hit.

    Carries enough state to diagnose what the run would have needed.  The
    ``details`` dict is reported verbatim in error messages and CLI output;
    construction paths put computed minimum requirements (e.g. ``m0``,
    ``m_required``) there instead of silently shrinking any constant.
    """

    def __init__(self, kind, message, **details):
        self.kind = kind
        self.details = details
        super().__init__(_with_details(message, details))


class CoverageError(CesaroError):
    """A ground set cannot supply the points a covering step requires."""

    def __init__(self, message, required_radius=None):
        self.required_radius = required_radius
        if required_radius is not None:
            message = f"{message} (required radius {required_radius})"
        super().__init__(message)


class CertificationError(CesaroError):
    """An exact postcondition that the construction must guarantee failed.

    This always indicates an implementation bug, never bad input.
    """


def certify(cond, msg, **details) -> None:
    """Raise ``CertificationError`` unless ``cond`` holds.

    Unlike ``assert``, this is not stripped by ``python -O``.  ``details``
    are formatted into the message only when the check fails.
    """
    if not cond:
        raise CertificationError(_with_details(msg, details))


class SchedulingError(CesaroError):
    """The round-robin term assignment could not meet its quotas."""

    def __init__(self, message, stage=None, state=None):
        self.stage = stage
        self.state = state
        if stage is not None:
            message = f"stage {stage}: {message}"
        super().__init__(message)
