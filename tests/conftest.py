from hypothesis import settings

# one profile for every property test: a fixed example sequence, no deadline.
# Hypothesis derives each test's examples from the test's source, so editing a
# test draws new inputs.
settings.register_profile("gradreg", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("gradreg")
