"""`repro.spec` — the executable golden specification of RV64+HWST128.

A second, independent, deliberately-naive implementation of the ISA:

* :mod:`repro.spec.geometry` — the metadata compression geometry
  (Eq. 2-6) as standalone pure bit functions;
* :mod:`repro.spec.state` — the architectural-state records
  (:class:`SpecState`, :class:`SpecTrap`, memory-effect events);
* :mod:`repro.spec.table` — one pure function per mnemonic
  (``SPEC_EXEC``), plus the :func:`spec_step` dispatcher;
* :mod:`repro.spec.lockstep` — lockstep co-simulation against an ISS
  engine, diffing full architectural state at every retire or at
  chunk ends;
* :mod:`repro.spec.equiv` — per-instruction operand-edge-case
  equivalence sweeps over all compression geometries.

Design rule (enforced by ``tests/test_conform.py``): nothing in this
package imports from ``repro.sim`` — engines are injected as opaque
objects by the conformance harness (``repro.harness.conform``), so the
spec stays an independent oracle. See ``docs/conformance.md``.
"""

from repro.spec.state import (  # noqa: F401
    MemEvent,
    SpecEnv,
    SpecState,
    SpecTrap,
)
from repro.spec.table import SPEC_EXEC, spec_step  # noqa: F401
