"""Shared pytest wiring: the BLAS thread pin, the hypothesis profile and
acceptance criteria report lines.

OpenBLAS, OpenMP and MKL are pinned to one thread before anything imports
numpy, so results and timings do not depend on the core count or on other
load; numpy already loaded would make the pin silently void, so that
stops the run.

Property tests run under one derandomized hypothesis profile with no
example database, so every run draws the same examples. Hypothesis still
caches the constants it reads from local source files under its home
directory; that home is a per-session temporary directory, so no run
writes a ``.hypothesis/`` directory into the tree.

The ``eigvalsh_calls`` fixture counts ``np.linalg.eigvalsh`` calls, so a
test can pin how many dense eigensolves a routine makes, and
``sweep_solves`` counts the noise sweep's own eigensolves
(``noise._eigvalsh`` calls, from either of its threads); ``paired_dsyevd``
makes the sweep solve in pairs on any host; ``bond_calls`` counts the
bonds the Kronecker oracle builds (``spinchain._bond`` calls).

test_acceptance.py registers one line per criterion through
``record_criterion``; the hook below reprints them as a summary section at
the end of every run, so the pass/fail lines are visible without ``-s``.
"""

import os
import sys
import tempfile

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin the BLAS "
        "thread count to 1"
    )
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import pytest  # noqa: E402
from hypothesis import configuration, settings  # noqa: E402

settings.register_profile(
    "tier1", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("tier1")


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    configuration.set_hypothesis_home_dir(home.name)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """A list that gains one entry per ``np.linalg.eigvalsh`` call."""
    import numpy as np

    calls = []
    real = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


@pytest.fixture
def sweep_solves(monkeypatch):
    """A list that gains the name of the calling thread per
    ``noise._eigvalsh`` call."""
    import threading

    from blocklanczos import noise

    calls = []
    real = noise._eigvalsh

    def counting(*args):
        calls.append(threading.current_thread().name)
        return real(*args)

    monkeypatch.setattr(noise, "_eigvalsh", counting)
    return calls


@pytest.fixture
def paired_dsyevd(monkeypatch):
    """The ``dsyevd`` that ``noise._bind_dsyevd`` binds where two solves may
    run at once, on two CPUs and one OpenBLAS thread, patched in as its
    result, so the noise sweep solves in pairs. Skips where numpy does not
    link scipy-openblas64."""
    import ctypes

    from numpy.linalg import _umath_linalg

    from blocklanczos import noise

    lapack = ctypes.CDLL(_umath_linalg.__file__)
    if not hasattr(lapack, "scipy_openblas_set_num_threads64_"):
        pytest.skip("numpy is not linked to scipy-openblas64")
    threads = lapack.scipy_openblas_get_num_threads64_()
    with monkeypatch.context() as host:
        host.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        lapack.scipy_openblas_set_num_threads64_(1)
        try:
            dsyevd = noise._bind_dsyevd()
        finally:
            lapack.scipy_openblas_set_num_threads64_(threads)
    assert dsyevd is not None
    monkeypatch.setattr(noise, "_bind_dsyevd", lambda: dsyevd)
    return dsyevd


@pytest.fixture
def bond_calls(monkeypatch):
    """A list that gains the arguments of each ``spinchain._bond`` call."""
    from blocklanczos import spinchain

    calls = []
    real = spinchain._bond

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spinchain, "_bond", counting)
    return calls


CRITERION_LINES: list[str] = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in CRITERION_LINES:
        terminalreporter.write_line(line)
