"""Regret-bound theory for SSP-SGD and PSSP-SGD (paper §III-E)."""

from repro.theory.regret import (
    RegretConditions,
    constant_pssp_regret_bound,
    constant_pssp_regret_series,
    dynamic_pssp_regret_bound,
    empirical_regret,
    ssp_regret_bound,
)

__all__ = [
    "RegretConditions",
    "constant_pssp_regret_bound",
    "constant_pssp_regret_series",
    "dynamic_pssp_regret_bound",
    "empirical_regret",
    "ssp_regret_bound",
]
