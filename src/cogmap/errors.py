class InputError(Exception):
    """Invalid input data, file, or parameter (maps to CLI exit code 1)."""


class TrainingError(InputError):
    """Training diverged (non-finite loss or parameters): a settings problem, so exit code 1."""
