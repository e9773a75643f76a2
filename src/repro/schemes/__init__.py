"""Protection schemes: compile pipelines gluing instrumentation,
runtime and codegen together. Running a program is the harness's job
(:func:`repro.harness.runner.run_program`).

Available schemes (the paper's Figures 4-6 cast):

==============  ============================================================
``baseline``    no protection (the perf.oh denominator, Eq. 7)
``sbcets``      SoftboundCETS software spatial+temporal (trie metadata)
``hwst128``     HWST128 hardware, temporal key load in software (no tchk)
``hwst128_tchk``full HWST128 with the tchk instruction + keybuffer
``bogo``        BOGO: MPX spatial + bound nullification on free
``wdl_narrow``  WatchdogLite, scalar metadata ops
``wdl_wide``    WatchdogLite, 256-bit vector metadata ops
``asan``        AddressSanitizer (redzones + quarantine + shadow bytes)
``gcc``         GCC stack-protector canaries
==============  ============================================================
"""

from repro.schemes.compile import (
    SCHEMES,
    compile_source,
    scheme_names,
)

__all__ = ["SCHEMES", "compile_source", "scheme_names"]
