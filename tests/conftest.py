"""Shared fixtures."""

import dataclasses

import pytest

from stiefelsum import certificate


@pytest.fixture
def stalled_certificate(monkeypatch):
    """certify's margin solve runs as usual but reports a failure."""
    real = certificate._margin_solve

    def stalled(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs),
                                   status="numerical_failure")

    monkeypatch.setattr(certificate, "_margin_solve", stalled)
