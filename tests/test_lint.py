"""Tests for the built-in fallback linter's F401 rule
(``repro.harness.lint``): a name is used when code reads it, an
``__all__`` entry lists it or a string annotation names it."""

from __future__ import annotations

import ast
import textwrap

from repro.harness.lint import _unused_imports


def _unused(source):
    source = textwrap.dedent(source)
    return _unused_imports(ast.parse(source), source.splitlines())


def test_a_name_read_by_code_is_used():
    assert _unused(
        """
        import os.path
        from typing import List
        ROOT = os.path.join("a", "b")
        NAMES: List[str] = []
        """
    ) == []


def test_a_word_in_a_string_is_not_a_use():
    assert _unused(
        """
        import json
        IGNORE = "ignore.json"
        """
    ) == [(2, "json")]


def test_a_word_in_a_docstring_is_not_a_use():
    assert _unused(
        '''
        import json


        def load():
            """Reads json."""
        '''
    ) == [(2, "json")]


def test_a_string_annotation_is_a_use():
    assert _unused(
        """
        from typing import TYPE_CHECKING, Optional

        if TYPE_CHECKING:
            from repro.netsim.link import Link
            from repro.netsim.node import Node
            from repro.netsim.packet import IPDatagram


        class Interface:
            owner: "Node"

            def attach(self, node: "Node") -> "Optional[Link]":
                return None
        """
    ) == [(7, "IPDatagram")]


def test_an_all_entry_is_a_use():
    assert _unused(
        """
        from repro.explore.engine import explore
        from repro.explore.scenarios import get_scenario
        __all__ = ["explore"]
        __all__ += ("get_scenario",)
        """
    ) == []


def test_noqa_keeps_an_import():
    assert _unused(
        """
        import json  # noqa: F401
        """
    ) == []
