"""Workload generators: distributions, synthetic Gxy groups, ride-hailing."""

from .distributions import (
    KeySampler,
    fit_zipf_exponent,
    tiered_probabilities,
    top_share,
    uniform_probabilities,
    zipf_probabilities,
)
from .ridehailing import RideHailingSpec, RideHailingWorkload
from .streams import StreamSource
from .synthetic import SKEW_GROUPS, SyntheticGroupSpec, group_label, make_group_sources

__all__ = [
    "KeySampler",
    "fit_zipf_exponent",
    "tiered_probabilities",
    "top_share",
    "uniform_probabilities",
    "zipf_probabilities",
    "RideHailingSpec",
    "RideHailingWorkload",
    "StreamSource",
    "SKEW_GROUPS",
    "SyntheticGroupSpec",
    "group_label",
    "make_group_sources",
]
