"""Test-session settings shared by every test module."""
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Reproducible offline fuzzing: the same examples on every run, no example
# database, and no per-example deadline (timings on shared machines vary too
# much for one).
settings.register_profile("soslab", derandomize=True, database=None, deadline=None)
settings.load_profile("soslab")


def pytest_configure(config):
    # Hypothesis still caches the constants it reads from the source files;
    # keep that cache inside pytest's own cache directory, not in .hypothesis/.
    cache = getattr(config, "cache", None)
    if cache is not None:
        set_hypothesis_home_dir(cache.mkdir("hypothesis"))
