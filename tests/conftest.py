from hypothesis import settings

# Property tests run on small, often noisy hosts: no per-example deadline,
# and a fixed example sequence so that a run repeats exactly.
settings.register_profile("qschlicht", deadline=None, derandomize=True)
settings.load_profile("qschlicht")
