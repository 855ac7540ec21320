"""Value profiling: streaming histograms (Algorithm 1), compact-range
extraction (Algorithm 2), and profiling runs feeding check insertion."""

from .histogram import Bin, OnlineHistogram
from .profiler import collect_profiles
from .profiles import InstructionProfile, ProfileStore
from .rangefinder import FrequentRange, compact_range

__all__ = [
    "Bin", "OnlineHistogram",
    "collect_profiles",
    "InstructionProfile", "ProfileStore",
    "FrequentRange", "compact_range",
]
