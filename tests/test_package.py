"""The package's public names."""

import crosslist


def test_every_exported_name_resolves_once():
    names = crosslist.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(crosslist, name)] == []
