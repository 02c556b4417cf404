"""One Hypothesis profile for the whole suite: derandomized, no example
database and no deadline, so every run draws the same examples."""

from hypothesis import settings

settings.register_profile("kuniform", deadline=None, derandomize=True, database=None)
settings.load_profile("kuniform")
