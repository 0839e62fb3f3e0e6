"""Shared benchmark fixtures and the results directory.

Every benchmark regenerates one table or figure from the paper's
evaluation.  Each writes its rows/series to ``benchmarks/results/`` (so
EXPERIMENTS.md can reference stable artifacts) *and* prints them, and
each contains at least one ``benchmark(...)`` measurement so the whole
directory runs under ``pytest benchmarks/ --benchmark-only``.
"""

import os

import pytest

from repro.session import Session

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_result(name, text):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as f:
        f.write(text)
    print("\n" + text)
    return path


@pytest.fixture(scope="session")
def bench_session(tmp_path_factory):
    """One builtin-corpus session shared by all benchmarks."""
    return Session.create(str(tmp_path_factory.mktemp("bench-universe")))


@pytest.fixture(scope="session")
def universe_session(tmp_path_factory):
    """The full 245-package universe (builtin + synthetic), Figure 8."""
    from repro.packages.synthetic import full_universe

    session = Session.create(str(tmp_path_factory.mktemp("bench-245")), packages=None)
    session.repo.repos = full_universe(total=245).repos
    session.seed_web()
    return session
