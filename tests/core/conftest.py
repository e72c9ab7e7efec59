"""Core-package fixtures: the Workspace-state axis.

Training and MC evaluation run through one executor: the ``out=`` kernels
of :mod:`repro.core.grad_kernels`, writing into preallocated
:class:`~repro.core.grad_kernels.Workspace` buffers.  Their contract is
that a buffer is always written in full before it is read, so no result
may depend on what a freshly allocated buffer happens to hold.  Large
``np.empty`` allocations usually come back as zeroed pages, which would
hide a kernel that reads before writing; the equivalence and gradcheck
suites therefore run every check twice, once per :func:`workspace_fill`.

The two parameter ids keep the names of the two execution backends this
axis replaced (``numpy``, ``fused``), so the test ids stay stable.
"""

import numpy as np
import pytest

from repro.core.grad_kernels import Workspace


def _poisoning(original):
    def buf(self, name, shape, dtype=np.float64):
        before = self._buffers.get(name)
        out = original(self, name, shape, dtype)
        if out is not before:
            out.fill(np.nan if out.dtype.kind == "f" else -1)
        return out

    return buf


@pytest.fixture(params=["numpy", "fused"])
def workspace_fill(request, monkeypatch):
    """Contents of fresh Workspace buffers: ``numpy`` as allocated,
    ``fused`` NaN-poisoned (``-1`` for integer buffers)."""
    if request.param == "fused":
        monkeypatch.setattr(Workspace, "buf", _poisoning(Workspace.buf))
    return request.param
