"""The package namespace: every exported name resolves."""
from __future__ import annotations

import growthtight


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from growthtight import *", namespace)
    missing = [name for name in growthtight.__all__ if name not in namespace]
    assert missing == []


def test_every_exported_name_resolves():
    assert len(set(growthtight.__all__)) == len(growthtight.__all__)
    for name in growthtight.__all__:
        assert getattr(growthtight, name, None) is not None, name
