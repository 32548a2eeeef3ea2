"""The package's public surface."""

import weylkit


def test_all_names_resolve_without_duplicates():
    assert len(weylkit.__all__) == len(set(weylkit.__all__))
    missing = [name for name in weylkit.__all__ if not hasattr(weylkit, name)]
    assert missing == []
