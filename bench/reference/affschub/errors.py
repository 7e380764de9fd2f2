"""Shared exception types."""


class ParseError(ValueError):
    """A label or element string could not be parsed; the message names the bad token."""


class BoundExceededError(RuntimeError):
    """A configurable size limit was exceeded.

    The message names the limit and the keyword argument that raises it, so the
    caller can retry with a larger bound deliberately instead of silently
    truncating.
    """

    def __init__(self, what: str, value: int, limit: int, knob: str):
        self.what = what
        self.value = value
        self.limit = limit
        self.knob = knob
        super().__init__(
            f"{what} {value} exceeds the configured limit {limit}; "
            f"pass {knob}={value} (or larger) to raise it"
        )
