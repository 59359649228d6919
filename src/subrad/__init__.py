"""Dispersive-cavity simulator for preparing collectively dark atomic states."""

__version__ = "0.1.0"

from .fields import FieldSpec
from .model import SystemParams
from .protocol import run

__all__ = ["FieldSpec", "SystemParams", "run"]
