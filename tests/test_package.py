"""The package namespace: what __all__ promises is there."""

import cityalloc


def test_public_names_resolve_and_are_listed_once():
    names = cityalloc.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(cityalloc, n)] == []
