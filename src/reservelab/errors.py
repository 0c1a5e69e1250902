"""Exception types shared across the package.

All of these derive from ValueError so callers that just want "bad input"
semantics can catch one thing. The CLI exits 2 on ConfigError or any other
ValueError, 3 on LogParseError and DomainError (bad data), and 4 on
SearchSpaceTooLarge (a refused search).
"""


class DomainError(ValueError):
    """A quantity was requested outside the domain where it is defined."""


class SearchSpaceTooLarge(ValueError):
    """An exhaustive search would exceed the configured size bound."""


class LogParseError(ValueError):
    """A bid log file failed validation.

    line_number is 1-based and refers to the offending line of the input file
    (0 for file-level problems such as a bad header or an empty file).
    """

    def __init__(self, message: str, line_number: int = 0):
        super().__init__(f"line {line_number}: {message}" if line_number else message)
        self.line_number = line_number


class ConfigError(ValueError):
    """A run configuration is missing fields or contains invalid values."""
