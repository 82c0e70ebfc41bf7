"""Exception types shared across the toolkit."""


class TrilinError(Exception):
    """Base class for all toolkit errors."""


class GraphConstructionError(TrilinError):
    """Invalid graph input: loops, out-of-range endpoints, bad labels."""


class ParseError(TrilinError):
    """Malformed serialized input. Carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CapacityError(TrilinError):
    """Input exceeds a configured size cap (e.g. canonical-form vertex limit)."""


class CertificateError(TrilinError):
    """A preimage witness is structurally invalid (non-bijective mapping etc.)."""


class GlueError(CertificateError):
    """Prescribed template choices admit no preimage; `failure` says why."""

    def __init__(self, failure: str):
        super().__init__(f"no preimage realizes the prescribed template choices: {failure}")
        self.failure = failure


class StructureError(TrilinError):
    """A blueprint does not satisfy the structural preconditions of an operation."""


class IntegrityError(TrilinError):
    """Embedded data file failed its checksum or schema validation."""


class BudgetExceededError(TrilinError):
    """Search ran out of its node or time budget before reaching a conclusion."""


class UnsatisfyingAssignmentError(TrilinError):
    """An assignment fails some clause; carries the 1-based clause index."""

    def __init__(self, clause_index: int):
        super().__init__(f"assignment does not satisfy clause {clause_index}")
        self.clause_index = clause_index
