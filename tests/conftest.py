"""With ``CI`` set, Hypothesis draws the same examples on every run and a
failure prints a blob that replays it locally (``@reproduce_failure``)."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
