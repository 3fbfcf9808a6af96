"""Shared pytest configuration."""

from stmg.core import CoarseningStrategy as CS

#: test-ID names of the two strategies' schedules, as the CLI spells them
_STRATEGY_IDS = {CS.NEW: "new", CS.ORIGINAL: "original"}


def pytest_make_parametrize_id(config, val, argname):
    """Name a ``strategy`` parameter ``new`` or ``original``, not ``strategy0``."""
    return _STRATEGY_IDS.get(val) if argname == "strategy" else None
