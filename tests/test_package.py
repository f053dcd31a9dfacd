"""Tests for the package's public namespace."""

import ramfourier


def test_every_exported_name_resolves():
    for name in ramfourier.__all__:
        assert hasattr(ramfourier, name), name
    assert len(set(ramfourier.__all__)) == len(ramfourier.__all__)
