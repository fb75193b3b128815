from hypothesis import settings

# Every run draws the same examples, so a Tier-1 result does not depend on
# the seed or on failures replayed from a local example database.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
