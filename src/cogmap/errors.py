class InputError(Exception):
    """Invalid input data, file, or parameter (maps to CLI exit code 1)."""
