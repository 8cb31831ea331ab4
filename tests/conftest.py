"""Pytest configuration: make the shared helpers importable, and the
hypothesis profiles the oracle state machine takes its budget from.

``tier1`` (loaded by default) and ``ci`` (``--hypothesis-profile=ci``,
CI's deep step) differ only in ``max_examples`` and
``stateful_step_count``.  Every ``@given`` test sets its own
``max_examples`` and no other test is a state machine, so neither
profile changes any other test's budget.
"""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("tier1", max_examples=80, stateful_step_count=20)
settings.register_profile("ci", max_examples=600, stateful_step_count=40)
settings.load_profile("tier1")
