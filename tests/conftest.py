"""Shared fixtures."""

import dataclasses

import pytest

from stiefelsum import certificate


@pytest.fixture
def stalled_certificate(monkeypatch):
    """certify's feasibility IPM runs as usual but reports a stall."""
    real = certificate.solve_ipm

    def stalled(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs),
                                   status="numerical_failure")

    monkeypatch.setattr(certificate, "solve_ipm", stalled)
