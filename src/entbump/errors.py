"""Exception types shared across the package.

Everything derives from ValueError so that callers who do not care about the
fine distinction can catch one thing; the CLI maps all of these to exit
code 2 (usage / config error).
"""


class InvalidCubeError(ValueError):
    """A dyadic cube is malformed or finer than the grid it is used on."""


class ResolutionMismatchError(ValueError):
    """Two grid objects with different resolutions were combined."""


class InvalidWeightError(ValueError):
    """A weight has negative cells, or is identically zero where forbidden."""


class InvalidSpecError(ValueError):
    """A bump / Orlicz spec string or parameter set is not in the catalog."""


class BracketingError(ValueError):
    """The Luxemburg-norm solve could not bracket or certify the unit mean."""


class SparsePreconditionError(ValueError):
    """A sparse-collection operation was called on an unqualified input."""


class FileFormatError(ValueError):
    """A data file is malformed; carries the path and 1-based line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class ConfigError(ValueError):
    """An experiment or CLI configuration is invalid."""
