"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run
(``derandomize``) and prints the blob that replays a failure (``print_blob``); every
test's own ``@settings`` still applies on top.  The ``on_dense_mesh`` fixture gives the
dense-lattice reference of a computation on :class:`SampleLattice` open grids."""

import os

import numpy as np
import pytest
from hypothesis import settings

from singhyp.symbols import SampleLattice

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


@pytest.fixture
def on_dense_mesh(monkeypatch):
    """``on_dense_mesh(f)`` returns ``f()`` run with :meth:`SampleLattice.mesh` giving the
    dense ``np.meshgrid`` of the same samples: the reference the open grids must equal."""
    def run(f):
        with monkeypatch.context() as m:
            m.setattr(SampleLattice, "mesh",
                      lambda self: np.meshgrid(self.t, self.x, self.xi, indexing="ij"))
            return f()
    return run
