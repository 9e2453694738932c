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


@pytest.fixture
def tripled_label(monkeypatch):
    """Every cutter reply's state carries the label of its first edge on
    three edges, its value unchanged: an improper state that only
    ``validate`` notices."""
    import dataclasses

    from cutgame import equivalence

    real = equivalence.cutter_replies

    def tripled(marked):
        out = []
        for reply in real(marked):
            state = reply.next
            first = state.cycles[0]
            first += (first[0],) * (3 - state.label_counts()[first[0]])
            out.append(dataclasses.replace(reply, next=dataclasses.replace(state, cycles=(first,) + state.cycles[1:])))
        return out

    monkeypatch.setattr(equivalence, "cutter_replies", tripled)
