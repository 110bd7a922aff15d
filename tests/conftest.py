"""Shared fixtures: towers and the exhaustive small code corpus."""

import os

import pytest

# The corpus includes the full space F8^9 (8^9 ~ 1.3e8 codewords); the
# default 2^24 budget would reject it even though the enumeration exits on
# the first weight-1 codeword.  Tests that exercise the budget guard set
# SUMRANK_BUDGET themselves with monkeypatch.setenv.
os.environ.setdefault("SUMRANK_BUDGET", str(1 << 28))

from sumrank import build_tower  # noqa: E402
from sumrank.product import corpus_f1, corpus_f2  # noqa: E402


@pytest.fixture(scope="session")
def tower9():
    """F2 / F8 / F4 / F64, n = 9, three blocks of size 3."""
    return build_tower(2, 1, 3, 2, 3, 3)


@pytest.fixture(scope="session")
def tower4():
    """F4 as the working field over E = F2, one block of size 2 (n = 2)."""
    return build_tower(2, 1, 2, 1, 1, 2)


@pytest.fixture(scope="session")
def tower_ell1():
    """F64 / F4 with a single block: ell = 1, m = N = 3."""
    return build_tower(2, 1, 3, 2, 1, 3)


@pytest.fixture(scope="session")
def corpus(tower9):
    """All (f1, f2) generator pairs: f1 | x^3 - 1 over F2 (lifted to F8),
    f2 a monic right divisor of z^3 - 1 in F8[z; theta]."""
    return corpus_f1(tower9), corpus_f2(tower9)
