"""Improvement neighborhoods for pickup-and-delivery tours.

Six move families, each returning a MoveDelta describing its best
candidate: single-pair relocation, precedence-aware 2-opt and or-opt
scans anchored at one position, and three exponential or quadratic
families explored in full (nested 2-opts, a restricted 4-opt, and the
Balas-Simonetti reordering graph).
"""

from __future__ import annotations

from dataclasses import dataclass

from .relocate import relocate_pair_best
from .twoopt import two_opt_scan
from .oropt import or_opt_scan
from .twokopt import two_k_opt_best
from .fouropt import four_opt_best, four_opt_type1_any
from .balas_simonetti import bs_best, bs_optimize


@dataclass
class SearchParams:
    """Tuning knobs shared by the local search and the metaheuristics.

    ``k_or`` caps or-opt segment length, ``k_bs`` sets the
    Balas-Simonetti window (1 disables it, widths grow exponentially so
    12 is a hard cap), and ``p_large`` is the chance a descent enables
    the large neighborhoods.
    """

    k_or: int = 30
    k_bs: int = 3
    p_large: float = 0.1

    def __post_init__(self):
        if self.k_or < 1:
            raise ValueError("k_or must be at least 1")
        if not 1 <= self.k_bs <= 12:
            raise ValueError("k_bs must be between 1 and 12")
        if not 0.0 <= self.p_large <= 1.0:
            raise ValueError("p_large must be a probability")


__all__ = [
    "SearchParams",
    "relocate_pair_best",
    "two_opt_scan",
    "or_opt_scan",
    "two_k_opt_best",
    "four_opt_best",
    "four_opt_type1_any",
    "bs_best",
    "bs_optimize",
]
