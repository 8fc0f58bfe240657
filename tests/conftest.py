import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from deltalin.ring import make_context

# One Hypothesis profile for every property test: the same examples on every
# run, no example database, and no per-example deadline (the timings of
# exact arithmetic vary with the host).  Tests set only max_examples.
settings.register_profile("deltalin", derandomize=True, database=None, deadline=None)
settings.load_profile("deltalin")
# Hypothesis still caches the literal constants it harvests from the code
# under test; keep them in a directory removed when the run ends, not in
# `.hypothesis/` under the working directory.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="deltalin-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture(scope="session")
def c5():
    """Z/5^10 (m = 1)."""
    return make_context(5, 1, 10)


@pytest.fixture(scope="session")
def c5x2():
    """W(F_25)/5^8 with the modulus x^2 + 4x + 2."""
    return make_context(5, 2, 8, residue_poly=[2, 4, 1])


@pytest.fixture(scope="session")
def c7():
    return make_context(7, 1, 12)


@pytest.fixture(scope="session")
def c13x2():
    """W(F_169)/13^6, default modulus."""
    return make_context(13, 2, 6)
