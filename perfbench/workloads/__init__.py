"""The benchmark's workloads, by name. Importing this package imports
koszulbench, so only the worker process does it."""

from . import dyck_scan, koszul_wl, multiplicity
from .common import CORRUPTIONS, Job, corrupt, interleave

BY_NAME = {
    "dyck-scan": dyck_scan,
    "multiplicity": multiplicity,
    "koszul": koszul_wl,
}

__all__ = ["BY_NAME", "CORRUPTIONS", "Job", "corrupt", "interleave"]
