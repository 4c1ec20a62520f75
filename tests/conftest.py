"""Shared hypothesis settings: no per-example deadline, because example
times on a loaded machine vary far more than the default 200 ms allows."""

from hypothesis import settings

settings.register_profile("stieltjes", deadline=None)
settings.load_profile("stieltjes")
