import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def unmerged(monkeypatch):
    """The verifiers search their plain trees, expanding every node: for
    tests that collect their inputs from the nodes a driver expands."""
    from cutgame import arena

    monkeypatch.setattr(arena, "_marker_key", None)
    monkeypatch.setattr(arena, "_cutter_key", None)
