"""Shared exception types: `BudgetExceededError` for a size cap and
`VerificationError` for a named check that failed (among them
`field-generator`, a GF(q) modulus under which no element generates the
nonzero elements)."""


class BudgetExceededError(RuntimeError):
    """Raised when a group or table would exceed a fixed size cap
    (`psl2.ELEMENT_LIMIT` or `gfq.TABLE_LIMIT`; also `IndexedGroup.cayley`
    past 2500 elements, which no engine path calls).

    Signals that formula-only mode is required at this scale.
    """


class VerificationError(AssertionError):
    """Raised when a named verification check fails: the run did not
    reproduce the classification.  The CLI reports it as a MISMATCH line
    with exit code 1."""

    def __init__(self, name: str, detail: str = ""):
        super().__init__(f"verification step failed: {name} ({detail})")
        self.name = name
        self.detail = detail
