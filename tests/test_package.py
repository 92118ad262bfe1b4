"""The package's public surface."""

import segnce


def test_every_exported_name_resolves():
    missing = [name for name in segnce.__all__ if not hasattr(segnce, name)]
    assert not missing
    assert len(set(segnce.__all__)) == len(segnce.__all__)
