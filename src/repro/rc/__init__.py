"""Register Connection architectural support: mapping table, PSW, contexts."""

from repro.rc.abstract import AbstractMap, MaskMap
from repro.rc.context import (
    ClassContext,
    ProcessContext,
    restore_context,
    save_context,
)
from repro.rc.mapping_table import MappingTable
from repro.rc.models import DEFAULT_MODEL, RCModel
from repro.rc.psw import MAP_ENABLE_BIT, PSW, RC_MODE_BIT

__all__ = [
    "AbstractMap",
    "ClassContext",
    "DEFAULT_MODEL",
    "MAP_ENABLE_BIT",
    "MappingTable",
    "MaskMap",
    "PSW",
    "ProcessContext",
    "RCModel",
    "RC_MODE_BIT",
    "restore_context",
    "save_context",
]
