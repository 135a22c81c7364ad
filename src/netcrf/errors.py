"""Exception types shared across the package."""


class DataError(Exception):
    """Malformed or inconsistent input data (files, frames, networks)."""


class OutOfSupportError(DataError):
    """Rows fall outside the support a model specification can represent."""


class NumericalError(Exception):
    """A numerical procedure could not produce a usable result."""


class RankDeficiencyError(NumericalError):
    """Design matrix is rank deficient and the caller asked for an error."""

    def __init__(self, dependent_columns):
        self.dependent_columns = tuple(dependent_columns)
        super().__init__(
            "design matrix is rank deficient; dependent columns: "
            + ", ".join(self.dependent_columns)
        )

