"""Test-suite settings: one derandomized hypothesis profile, so every run of
the property tests draws the same examples and writes no example database."""

from hypothesis import settings

settings.register_profile(
    "logahoric", derandomize=True, database=None, max_examples=100, deadline=None
)
settings.load_profile("logahoric")
