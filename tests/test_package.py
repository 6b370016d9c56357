"""The package exports: a removed function cannot leave its name behind."""

import starpinch


def test_every_export_resolves_once():
    names = starpinch.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(starpinch, name)]
    assert missing == []
