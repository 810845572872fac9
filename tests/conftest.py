"""Hypothesis profiles: a test run's verdict is a function of the tree.

The default profile, "derandomized", draws every property test's examples
from a seed fixed by the test itself and keeps no example database, so each
run of the suite on one tree tries the same examples, and a failure found
once is found again.  Each test keeps its own `max_examples`.  The "random"
profile draws fresh examples on every run, for an opt-in search:

    python -m pytest --hypothesis-profile=random tests/test_qcore.py
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("random", derandomize=False)
settings.load_profile("derandomized")
