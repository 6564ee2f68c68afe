"""The public namespace of the package."""

import hankelrev


def test_public_names_resolve_once():
    names = hankelrev.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(hankelrev, name), name
