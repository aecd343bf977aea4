"""Toolkit for the one-to-one pickup-and-delivery traveling salesman problem.

A single vehicle must visit 2n+1 locations: a depot (visit 0), n pickups
(visits 1..n) and n deliveries (visits n+1..2n), where pickup x is matched
with delivery x+n and must precede it. The package provides the data model
and file formats, a tour representation, six precedence-aware improvement
neighborhoods, a two-phase local search, ruin-and-recreate and hybrid
genetic metaheuristics, an exact enumeration solver for small instances,
and a command line front end.

The names below are the library quick start of the README; everything
else is imported from its submodule (``pdtsp_kit.tour``,
``pdtsp_kit.neighborhoods`` and so on).
"""

from .instance import FormatError, parse_instance
from .neighborhoods import SearchParams
from .search import local_search
from .metaheuristics import HgsParams, RrParams, greedy_construct, hgs_run, rr_run
from .oracle import brute_force_optimal

__version__ = "0.1.0"

__all__ = [
    "FormatError",
    "HgsParams",
    "RrParams",
    "SearchParams",
    "brute_force_optimal",
    "greedy_construct",
    "hgs_run",
    "local_search",
    "parse_instance",
    "rr_run",
    "__version__",
]
