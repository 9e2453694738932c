import contextlib
import os
import signal
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(__file__))


def clear_caches() -> None:
    """Empty every functools cache bound in a loaded ``cutgame`` module,
    found generically, so that a cache added later is emptied too."""
    for name, module in list(sys.modules.items()):
        if name == "cutgame" or name.startswith("cutgame."):
            for val in vars(module).values():
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts and ends with every cutgame cache empty: a warm
    cache, such as the sampled plays' table of audited plies, would
    answer a test with what it memoised before a fault was planted."""
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def unmerged(monkeypatch):
    """The verifiers search their plain trees, expanding every node: for
    tests that collect their inputs from the nodes a driver expands."""
    from cutgame import arena

    monkeypatch.setattr(arena, "_marker_key", None)
    monkeypatch.setattr(arena, "_cutter_key", None)


@pytest.fixture
def untabled(monkeypatch):
    """Sampled cutter plays audit every ply afresh, calling
    ``_audited_reply`` directly: the reference path of the table of
    audited plies."""
    from cutgame import arena

    monkeypatch.setattr(arena, "_tabled_reply", arena._audited_reply)


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


def swap_arcs(monkeypatch) -> None:
    """The cutter strategy reads the two arcs of a mark the wrong way
    round, so it licenses kind B where the accounting licenses C and C
    where it licenses B."""
    from cutgame import core, strategy

    monkeypatch.setattr(strategy, "split_cycle", lambda cyc, v, w: core.split_cycle(cyc, v, w)[::-1])


@pytest.fixture
def swapped_arcs(monkeypatch):
    swap_arcs(monkeypatch)


def switch_at_genus_two(monkeypatch) -> None:
    """The seeded game hands over to the cops when a refined bounding
    phase reaches configuration 2 at genus 2, instead of at genus 1."""
    from cutgame import strategy

    real = strategy.MarkerStrategy.advance

    def advance(self, phase, state, reply):
        nxt = real(self, phase, state, reply)
        if self.refined and isinstance(nxt, strategy.BoundingPhase) and nxt.config == 2 and reply.next.genus == 2:
            return strategy.SwitchToCops()
        return nxt

    monkeypatch.setattr(strategy.MarkerStrategy, "advance", advance)


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Raise ``TimeoutError`` in the block once it has run ``seconds``;
    the previous SIGALRM handler and real-time timer are restored after
    it, the timer less the time the block took."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    outer, interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - started), 1e-3), interval)


@pytest.fixture
def time_limit():
    """``with time_limit(seconds):`` fails a test whose block hangs
    instead of hanging the run."""
    return _time_limit
