from hypothesis import settings

# one profile for every property test: a fixed example sequence, no deadline
settings.register_profile("gradreg", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("gradreg")
