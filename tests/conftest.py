"""Hypothesis runs every property test from a fixed seed with no example
database and no deadline, so the suite draws the same examples each run."""

from hypothesis import settings

settings.register_profile("xshadow", derandomize=True, database=None, deadline=None)
settings.load_profile("xshadow")
