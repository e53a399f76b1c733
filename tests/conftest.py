"""Hypothesis profiles: ``ci`` runs derandomized and prints the blob that
reproduces a failing example; set ``HYPOTHESIS_PROFILE=ci`` to use it.
Without the variable the default profile runs."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
