"""Summary statistics of latency samples."""

from __future__ import annotations

TAIL_SAMPLES = 10


def _rank(n, q):
    """1-based nearest rank of the q-th percentile (integer q) of n samples."""
    return max(1, -(-q * n // 100))


def percentile(samples, q):
    """Nearest-rank q-th percentile of a non-empty sample list."""
    return sorted(samples)[_rank(len(samples), q) - 1]


def beyond(n, q):
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def tail(samples, q=90):
    """The q-th percentile, or None unless at least TAIL_SAMPLES lie beyond it."""
    if beyond(len(samples), q) < TAIL_SAMPLES:
        return None
    return percentile(samples, q)
