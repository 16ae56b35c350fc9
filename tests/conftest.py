"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run
(``derandomize``) and prints the blob that replays a failure (``print_blob``); every
test's own ``@settings`` still applies on top."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
