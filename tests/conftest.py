import os

import pytest


@pytest.fixture(autouse=True)
def _restore_blas_threads():
    """lutfit.cli.main sets OPENBLAS_NUM_THREADS in its own process; an
    in-process call must not pass it on to the subprocesses of later tests."""
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    yield
    if before is None:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = before
