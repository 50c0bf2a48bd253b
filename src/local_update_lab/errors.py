"""Exception hierarchy shared by all modules."""


class LocalUpdateError(Exception):
    """Base class for all library errors."""


class InvalidInputError(LocalUpdateError):
    """Malformed input: non-finite entries, bad shapes, invalid parameters."""


class DimensionMismatchError(InvalidInputError):
    """Operands do not conform."""


class InfeasibleSpectrumError(LocalUpdateError):
    """Requested spectrum cannot be realised (e.g. 1x1 matrix with mu != ell)."""


class ConditioningError(LocalUpdateError):
    """A precondition of the form gamma < (L + alpha)^-1 (or similar) fails."""


class DivergenceError(LocalUpdateError):
    """Iterates exceeded the divergence threshold."""

    def __init__(self, round_index: int, norm: float):
        super().__init__(
            f"iterate norm {norm:.3e} exceeded divergence threshold at round {round_index}"
        )
        self.round_index = round_index
        self.norm = norm


class PopulationFormatError(LocalUpdateError):
    """Population file could not be parsed."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
