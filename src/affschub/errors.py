"""Shared exception types."""


class ParseError(ValueError):
    """A label or element string could not be parsed; the message names the bad token."""


class BoundExceededError(RuntimeError):
    """A size limit was exceeded.

    The message names the limit and, when the caller can raise it, the keyword
    argument that does, so the caller can retry with a larger bound
    deliberately instead of silently truncating; with no keyword the limit is
    fixed.
    """

    def __init__(self, what: str, value: int, limit: int, knob: str | None = None):
        self.what = what
        self.value = value
        self.limit = limit
        tail = "the limit is fixed" if knob is None else f"pass {knob}={value} (or larger) to raise it"
        super().__init__(f"{what} {value} exceeds the configured limit {limit}; {tail}")
