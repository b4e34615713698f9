"""Test-session settings shared by every test module."""
import os

# One BLAS thread unless the caller sets one: the programs are small, and on
# a 2-core machine a second OpenBLAS thread's spin-waiting slows the solver's
# Python code severalfold. Set before any test module imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

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
