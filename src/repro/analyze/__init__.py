"""repro.analyze: forward-dataflow framework over the IR + clients.

Layers:

* :mod:`repro.analyze.cfg` — CFG, reverse postorder, dominators
* :mod:`repro.analyze.dataflow` — generic forward engine (per-edge
  states, widening/narrowing), ReachingDefinitions example client
* :mod:`repro.analyze.domain` — Interval + AVal abstract values
* :mod:`repro.analyze.memsafety` — the memory-safety transfer
* :mod:`repro.analyze.linter` — static linter (`repro analyze`)
* :mod:`repro.analyze.elide` — redundant-check elimination
  (`--elide-checks`)
"""

from repro.analyze.cfg import CFG
from repro.analyze.dataflow import (ForwardAnalysis,
                                    ReachingDefinitions, run_forward)
from repro.analyze.domain import AVal, Interval
from repro.analyze.elide import ElisionStats, elide_module
from repro.analyze.linter import (AnalysisReport, Finding,
                                  analyze_module, analyze_source)
from repro.analyze.memsafety import MemSafety

__all__ = [
    "CFG", "ForwardAnalysis", "ReachingDefinitions", "run_forward",
    "AVal", "Interval", "ElisionStats", "elide_module",
    "AnalysisReport", "Finding", "analyze_module", "analyze_source",
    "MemSafety",
]
