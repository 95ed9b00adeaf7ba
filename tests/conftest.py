"""Shared test set-up: Hypothesis derives its examples from each test's
source instead of a random seed, so every run of the suite draws the same
examples and gives the same verdict."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
