"""The machine-speed correction weights probes by the calls they surround."""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402
import speed  # noqa: E402


def test_slowdown_weights_each_probe_pair_by_its_call():
    log = speed.SpeedLog()
    log.add("a", (1.0, 1.0), (1.0, 1.0), 3.0)   # 3 s at reference speed
    log.add("b", (2.0, 1.0), (2.0, 1.0), 1.0)   # 1 s, interpreter twice as slow
    assert log.parts() == (pytest.approx(1.25), pytest.approx(1.0))
    assert log.slowdown() == pytest.approx(math.sqrt(1.25))
    assert log.probes == 4


def test_long_calls_get_longer_probes(monkeypatch):
    calls = []
    monkeypatch.setattr(speed, "probe_parts", lambda: calls.append(1) or (1.0, 1.0))
    log = speed.SpeedLog()
    log.probe("stream")
    assert len(calls) == 1
    log.add("stream", (1.0, 1.0), (1.0, 1.0), 6.0)
    calls.clear()
    log.probe("stream")
    assert len(calls) == round(6.0 * log.PROBE_SHARE / (
        speed.REFERENCE_INTERPRETER_S + speed.REFERENCE_MEMORY_S))
    assert len(calls) > 1


def test_no_probed_call_is_an_error():
    with pytest.raises(ValueError):
        speed.SpeedLog().slowdown()
