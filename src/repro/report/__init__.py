"""Reporting helpers: text tables and experiment records."""

from .bench import (
    DEFAULT_HISTORY_LIMIT,
    append_keyed_bench_record,
    cpu_jiffies,
    host_record,
    load_keyed_bench,
    steal_share,
)
from .records import ExperimentRecord, load_records, save_records
from .tables import dict_rows_to_table, format_table, relative_error

__all__ = [
    "append_keyed_bench_record",
    "load_keyed_bench",
    "host_record",
    "cpu_jiffies",
    "steal_share",
    "DEFAULT_HISTORY_LIMIT",
    "format_table",
    "dict_rows_to_table",
    "relative_error",
    "ExperimentRecord",
    "save_records",
    "load_records",
]
