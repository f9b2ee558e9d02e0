"""subrosa: design and formal analysis of LCM specifications (§3.4)."""

from repro.subrosa.finder import Comparison, check, compare, find, instances

__all__ = [
    "Comparison",
    "check",
    "compare",
    "find",
    "instances",
]
