"""Shared utilities: deterministic RNG streams, result records, tables."""

from repro.utils.rng import derive_rng
from repro.utils.records import RunRecord, SeriesRecord
from repro.utils.tables import format_table

__all__ = [
    "derive_rng",
    "RunRecord",
    "SeriesRecord",
    "format_table",
]
