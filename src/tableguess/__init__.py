"""Footrule metrics, exact random-guess statistics, and parsimonious
forecasts for football league tables.

The public names load on first use (PEP 562), so ``import tableguess``
loads no submodule and each CLI command imports only what it runs.
"""

import importlib

__version__ = "0.1.0"

# The forecast strategies' names. They live here, not in ``predictor``, so
# that the CLI can offer them without importing it.
STRATEGY_RANK = "rank"
STRATEGY_GD = "gd"
STRATEGIES = (STRATEGY_RANK, STRATEGY_GD)

_EXPORTS = {
    "league": (
        "MatchFileError",
        "MatchRecord",
        "SeasonDataset",
        "StandingsRow",
        "StandingsTable",
        "final_standings",
        "parse_matches",
        "standings_at_round",
        "standings_series",
        "synthetic_season",
    ),
    "permstats": (
        "DimensionMismatchError",
        "MonteCarloSummary",
        "OracleCapError",
        "Ranking",
        "ScoreDistribution",
        "ScoreStats",
        "brute_force_distribution",
        "distribution_moments",
        "footrule_score",
        "identity",
        "mae",
        "monte_carlo_mae",
        "mse",
        "ranking_from_orders",
        "reversal",
        "score_stats",
    ),
    "predictor": (
        "ForecastReport",
        "evaluate_season",
    ),
    "regression": (
        "R2Curve",
        "r2_curve",
        "threshold_round",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # the four library modules stay attributes of the package, as when it
    # imported them all
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
