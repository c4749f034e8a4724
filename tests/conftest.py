"""Session set-up shared by every test module."""

from __future__ import annotations

import os
import shutil
import tempfile


def pytest_configure(config):
    """Build the C kernel and body libraries in a directory of this
    session's own, removed when it ends, unless the caller chose one
    (``FACILE_CKERNEL_DIR``).  The suite compiles fresh simulators, and
    each would leave its body library in the shared per-user cache.
    Pytest runs this before it imports any test module, so before any
    of them loads the kernel."""
    if os.environ.get("FACILE_CKERNEL_DIR"):
        return
    path = tempfile.mkdtemp(prefix="facile-ckernel-tests-")
    os.environ["FACILE_CKERNEL_DIR"] = path
    config.add_cleanup(lambda: shutil.rmtree(path, ignore_errors=True))
