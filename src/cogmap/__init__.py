"""Multi-scale successor-representation maps of word categories."""

__version__ = "0.1.0"

from .errors import InputError
