"""HWST128 reproduction: complete memory safety on RISC-V with metadata
compression (Dow, Li, Parameswaran — DAC 2022), rebuilt as a pure-Python
system: ISA + ISS, pipeline timing model, metadata compression core,
mini-C compiler with SBCETS/HWST128/ASAN/GCC/BOGO/WDL instrumentation,
workload suites, and the figure-regeneration harness.

Quickstart::

    from repro import compile_and_run
    result = compile_and_run(source, scheme="hwst128_tchk")
"""

__version__ = "1.0.0"


def compile_and_run(source: str, scheme: str = "baseline", **kwargs):
    """Compile mini-C ``source`` under ``scheme`` and execute it.

    Returns a :class:`repro.sim.machine.RunResult`. Extra keyword
    arguments are forwarded to
    :func:`repro.harness.runner.run_program`, the one compile-and-run
    path.
    """
    from repro.harness.runner import run_program

    return run_program(source, scheme, **kwargs)
