"""The package's public namespace."""

import floqtrk


def test_public_names_resolve():
    """Every name in floqtrk.__all__ exists, once, and a star import
    binds them all."""
    assert [name for name in floqtrk.__all__ if not hasattr(floqtrk, name)] == []
    assert len(set(floqtrk.__all__)) == len(floqtrk.__all__)
    namespace = {}
    exec("from floqtrk import *", namespace)
    assert set(floqtrk.__all__) <= set(namespace)
