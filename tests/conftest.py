"""Shared fixtures."""

import pytest

from repro.sim.stats import LatencyDigest


@pytest.fixture
def no_scalar_fold(monkeypatch):
    """Make the per-sample digest fold (``LatencyDigest.extend`` /
    ``record``) raise, so a test fails if any path it runs folds
    samples one Python call at a time instead of through
    ``extend_array``."""

    def refuse(self, *args):
        raise AssertionError("scalar LatencyDigest fold")

    monkeypatch.setattr(LatencyDigest, "extend", refuse)
    monkeypatch.setattr(LatencyDigest, "record", refuse)
