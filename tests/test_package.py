"""The package namespace: ``__all__`` names every public export."""

from __future__ import annotations

import inspect

import kneserchrom


def test_all_matches_public_names():
    public = {
        name
        for name, value in vars(kneserchrom).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(kneserchrom.__all__) == public
