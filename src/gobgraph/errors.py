"""The error raised for bad user input."""


class ConfigError(ValueError):
    """Schema or invariant violation in a configuration file or in a
    command-line value.

    It subclasses ValueError because the library functions that raise it
    (grid resolution, the estimators' replicate minimums) reject a bad
    argument value; the CLI reports it as a config error (exit 2).
    """
