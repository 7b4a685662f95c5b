"""The package namespace: every exported name resolves."""
from __future__ import annotations

import ast
from pathlib import Path

import growthtight
from growthtight import cli, quotients, tree


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from growthtight import *", namespace)
    missing = [name for name in growthtight.__all__ if name not in namespace]
    assert missing == []


def test_every_exported_name_resolves():
    assert len(set(growthtight.__all__)) == len(growthtight.__all__)
    for name in growthtight.__all__:
        assert getattr(growthtight, name, None) is not None, name


def test_only_automata_builds_counts_and_brackets_a_language():
    # the CLI, the quotients and the tree reach a language's automaton, counts
    # and bracket through automata.Language, never through the calls it wraps
    wrapped = {"avoid_factors", "count_lengths", "perron_root", "perron_roots"}
    for module in (cli, quotients, tree):
        source = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = {
            alias.name
            for node in ast.walk(source) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert not imported & wrapped, module.__name__
