"""Shared test settings.

Some property-test examples evaluate terms over finite frames whose tables
take longer than Hypothesis's default 200 ms deadline, so a run could fail
at random depending on the machine's load.  The profile below drops the
deadline and keeps every test's example count as it is.
"""

from hypothesis import settings

settings.register_profile("hotab", deadline=None)
settings.load_profile("hotab")
