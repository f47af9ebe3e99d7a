"""Shared test settings.

Every ``hypothesis`` test runs under the ``codseries`` profile, which prints
the ``@reproduce_failure`` blob of a failing generated case, so a failure
seen once (in CI, or from a fresh example database) can be replayed exactly.
"""

from hypothesis import settings

settings.register_profile("codseries", print_blob=True)
settings.load_profile("codseries")
