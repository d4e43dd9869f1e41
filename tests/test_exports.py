"""The package's public names: ``metafn.__all__`` lists only what exists."""

import metafn


def test_every_exported_name_exists_and_star_import_runs():
    assert [name for name in metafn.__all__ if not hasattr(metafn, name)] == []
    namespace = {}
    exec("from metafn import *", namespace)
    assert set(metafn.__all__) <= set(namespace)
