"""Property-based tests for the deployment data structures."""

from hypothesis import given, settings, strategies as st

from repro.runtime import PatternLibrary


class TestPatternLibraryProperties:
    @given(st.lists(st.tuples(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                              st.booleans()), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_lookup_returns_last_remembered(self, operations):
        library = PatternLibrary(max_patterns=1000)
        expected: dict = {}
        for pattern, verdict in operations:
            library.remember(pattern, verdict)
            expected[pattern] = verdict
        for pattern, verdict in expected.items():
            assert library.lookup(pattern) is verdict

    @given(st.lists(st.tuples(st.integers(0, 100), st.booleans()),
                    min_size=1, max_size=200), st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_capacity_never_exceeded(self, operations, max_patterns):
        library = PatternLibrary(max_patterns=max_patterns)
        for key, verdict in operations:
            library.remember((key,), verdict)
            assert len(library) <= max_patterns

    @given(st.lists(st.integers(0, 10), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_hit_rate_bounds(self, keys):
        library = PatternLibrary()
        for key in keys:
            if library.lookup((key,)) is None:
                library.remember((key,), False)
        assert 0.0 <= library.stats.hit_rate <= 1.0
        assert library.stats.total == len(keys)
