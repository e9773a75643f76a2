"""Differential oracle stack for fuzz programs.

Four oracle classes, each a pure function of observable run profiles:

``scheme``
    gcc / sbcets / hwst128 must agree on (status, exit code, stdout)
    for safe programs; a planted bug must be reported by every checked
    scheme with exactly the planted violation class (spatial vs
    temporal) — never missed, never mis-attributed.  The unchecked
    baseline may do anything on a buggy program *except* spin forever.
``static``
    the linter's error findings are must-facts; any error on a
    provably safe program is a false positive, and an error whose
    class contradicts the planted class is a mis-attribution.
``compression``
    the same program under two metadata-compression geometries
    (default vs :data:`ALT_WIDTHS`) must execute identically:
    same status/exit/stdout/trap class, same trap pc, same instret.
    Heap digests are *excluded* here by design — the runtime stores
    width-dependent packed metadata words in memory, so raw images
    legitimately differ between geometries.
``timing``
    the timed pipeline must be architecturally invisible: ISS and
    pipeline runs of the same build must match on every observable
    including the heap digest and the retired-instruction count.

Every run happens untimed except the one timed hwst128 probe, which
doubles as the coverage collector (per-PC profile folded onto runtime
function symbols).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import FieldWidths, HwstConfig
from repro.faultinject.oracle import RunProfile, engine_pair, profile_source
from repro.obs import CycleProfiler, Observers
from repro.sim.machine import (
    STATUS_EXIT, STATUS_LIMIT, STATUS_SPATIAL, STATUS_TEMPORAL,
)

__all__ = ["ALT_WIDTHS", "CHECKED_SCHEMES", "DEFAULT_SCHEMES",
           "Divergence", "ProgramProbe", "alt_config", "classify_program",
           "probe_program"]

#: the alternative compression geometry for the round-trip oracle —
#: wider base/lock, narrower range/key than the paper's default.
ALT_WIDTHS = FieldWidths(base=38, range=26, lock=18, key=46)

DEFAULT_SCHEMES: Tuple[str, ...] = ("gcc", "sbcets", "hwst128")
CHECKED_SCHEMES: Tuple[str, ...] = ("sbcets", "hwst128")

_EXPECT_STATUS = {"spatial": STATUS_SPATIAL, "temporal": STATUS_TEMPORAL}

#: linter finding kind -> violation class it asserts.
_LINT_CLASS = {
    "oob": "spatial",
    "intra-oob": "spatial",
    "uaf": "temporal",
    "double-free": "temporal",
    "invalid-free": "temporal",
}


def alt_config(config: Optional[HwstConfig] = None) -> HwstConfig:
    """The default config re-geometried to :data:`ALT_WIDTHS`.

    ``lock_entries`` shrinks to the 18-bit lock space the narrower
    field can address.
    """
    base = config or HwstConfig()
    return HwstConfig(widths=ALT_WIDTHS, lock_entries=1 << 18,
                      shadow_offset=base.shadow_offset,
                      lock_base=base.lock_base)


@dataclass(frozen=True)
class Divergence:
    """One oracle disagreement (the fuzzer's unit of 'found something')."""

    oracle: str          # scheme | static | compression | timing | harness
    kind: str            # e.g. "stdout_mismatch", "missed.hwst128"
    detail: str = ""

    @property
    def signature(self) -> Tuple[str, str]:
        return (self.oracle, self.kind)

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "kind": self.kind,
                "detail": self.detail}


@dataclass
class ProgramProbe:
    """Raw observations of one program across every oracle axis."""

    profiles: Dict[str, RunProfile]
    lint_kinds: Tuple[str, ...]
    functions: Tuple[str, ...]       # runtime functions hit (timed run)
    #: Spec-lockstep observation (opt-in): first divergence (or None)
    #: plus run shape. None when the spec oracle was not requested.
    spec: Optional[dict] = None


def probe_program(source: str,
                  schemes: Sequence[str] = DEFAULT_SCHEMES,
                  config: Optional[HwstConfig] = None,
                  cache=None,
                  max_instructions: int = 2_000_000,
                  collect_coverage: bool = True,
                  engine_lockstep: bool = False,
                  spec_lockstep: bool = False) -> ProgramProbe:
    """Run every oracle probe for ``source``; may raise on a toolchain
    crash (the campaign layer converts that into a harness divergence).

    ``engine_lockstep`` (opt-in, off by default so existing
    ``repro.fuzz/v1`` reports stay byte-identical) adds a fifth oracle
    axis: the hwst128 build executed on the reference engine and on
    the fast translation-cached engine (each named explicitly, whatever
    the default engine), which must match on every observable
    including instret and the heap digest.

    ``spec_lockstep`` (opt-in, same byte-compatibility contract) adds
    the executable golden spec (``repro.spec``) as an oracle: the
    hwst128 build co-simulated instruction-by-instruction against the
    reference engine, with full architectural state diffed at every
    retire.
    """
    from repro.analyze.linter import analyze_source
    from repro.harness.compile_cache import process_cache

    cache = cache if cache is not None else process_cache()
    config = config or HwstConfig()
    profiles: Dict[str, RunProfile] = {}
    for scheme in schemes:
        (profiles[scheme],), _ = profile_source(source, scheme, config,
                                                max_instructions, cache)
    functions: Tuple[str, ...] = ()
    spec_record: Optional[dict] = None
    if "hwst128" in schemes:
        if engine_lockstep:
            profiles["hwst128@ref"], profiles["hwst128@fast"] = \
                engine_pair(source, "hwst128", config, max_instructions,
                            cache)
        if spec_lockstep:
            from repro.sim import make_machine
            from repro.spec.lockstep import run_lockstep

            program = cache.compile(source, "hwst128", config)
            machine = make_machine("ref", config=config, timing=None)
            widths = config.widths
            lockstep = run_lockstep(
                machine, program,
                widths=(widths.base, widths.range, widths.lock,
                        widths.key),
                lock_base=config.lock_base,
                shadow_budget=config.shadow_budget,
                max_instructions=max_instructions)
            spec_record = {
                "divergence": lockstep.divergence,
                "status": lockstep.outcome.status,
                "retires": lockstep.retires,
            }
        (profiles["hwst128@alt"],), _ = profile_source(
            source, "hwst128", alt_config(config), max_instructions, cache)
        observers = Observers(
            profiler=CycleProfiler() if collect_coverage else None)
        (profiles["hwst128@timed"],), program = profile_source(
            source, "hwst128", config, max_instructions, cache,
            timed=True, observers=observers)
        if collect_coverage:
            report = observers.profiler.report(program)
            functions = tuple(sorted(
                fn.name for fn in report.functions if fn.name != "?"))
    lint = analyze_source(source, "fuzz", config, cache)
    lint_kinds = tuple(sorted({f.kind for f in lint.errors()}))
    return ProgramProbe(profiles=profiles, lint_kinds=lint_kinds,
                        functions=functions, spec=spec_record)


def _show(profile: RunProfile) -> str:
    text = f"{profile.status}/exit={profile.exit_code}"
    if profile.trap_class:
        text += f"/{profile.trap_class}"
    return text


def classify_program(kind: str, expect: str, probe: ProgramProbe,
                     schemes: Sequence[str] = DEFAULT_SCHEMES
                     ) -> Tuple[Dict[str, str], List[Divergence]]:
    """Reduce a probe to per-oracle verdicts plus divergences.

    ``kind`` is "safe" or a planted-bug kind; ``expect`` is "" or the
    planted violation class. Verdicts: "agree", "divergence", or (for
    the static oracle on planted programs only) "miss" — the linter is
    allowed to miss a dynamic bug, it must never contradict one.
    """
    divergences: List[Divergence] = []
    profiles = probe.profiles
    safe = kind == "safe"

    # -- scheme agreement --------------------------------------------------
    if safe:
        reference = profiles[schemes[0]]
        for scheme in schemes:
            profile = profiles[scheme]
            if profile.status != STATUS_EXIT or profile.exit_code != 0:
                divergences.append(Divergence(
                    "scheme", f"safe_trap.{scheme}",
                    f"safe program ended {_show(profile)}"))
            elif profile.output != reference.output:
                divergences.append(Divergence(
                    "scheme", f"stdout_mismatch.{scheme}",
                    f"{scheme} stdout {profile.output!r} != "
                    f"{schemes[0]} stdout {reference.output!r}"))
    else:
        wanted = _EXPECT_STATUS[expect]
        for scheme in CHECKED_SCHEMES:
            if scheme not in profiles:
                continue
            profile = profiles[scheme]
            if profile.status == wanted:
                continue
            if profile.status in (STATUS_SPATIAL, STATUS_TEMPORAL):
                divergences.append(Divergence(
                    "scheme", f"misattributed.{scheme}",
                    f"planted {kind} ({expect}) reported as "
                    f"{profile.status}"))
            else:
                divergences.append(Divergence(
                    "scheme", f"missed.{scheme}",
                    f"planted {kind} ({expect}) ended {_show(profile)}"))
        if "gcc" in profiles and profiles["gcc"].status == STATUS_LIMIT:
            divergences.append(Divergence(
                "scheme", "runaway.gcc",
                f"unchecked run of planted {kind} hit the step budget"))
    scheme_verdict = "divergence" if any(
        d.oracle == "scheme" for d in divergences) else "agree"

    # -- static vs dynamic -------------------------------------------------
    static_verdict = "agree"
    if safe:
        if probe.lint_kinds:
            static_verdict = "divergence"
            divergences.append(Divergence(
                "static", "lint_false_positive",
                "linter errors on a safe program: "
                + ", ".join(probe.lint_kinds)))
    elif not probe.lint_kinds:
        static_verdict = "miss"
    else:
        classes = {_LINT_CLASS.get(k, "other") for k in probe.lint_kinds}
        if expect not in classes and "other" not in classes:
            static_verdict = "divergence"
            divergences.append(Divergence(
                "static", "lint_misattributed",
                f"planted {expect} bug, linter reported only: "
                + ", ".join(probe.lint_kinds)))

    # -- compression round-trip --------------------------------------------
    compression_verdict = "agree"
    if "hwst128" in profiles and "hwst128@alt" in profiles:
        a, b = profiles["hwst128"], profiles["hwst128@alt"]
        same = (a.status == b.status and a.exit_code == b.exit_code
                and a.output == b.output and a.trap_class == b.trap_class
                and a.trap_pc == b.trap_pc and a.instret == b.instret)
        if not same:
            compression_verdict = "divergence"
            divergences.append(Divergence(
                "compression", "config_mismatch",
                f"default {_show(a)} instret={a.instret} vs "
                f"alt {_show(b)} instret={b.instret}"))

    # -- ISS vs pipeline ---------------------------------------------------
    timing_verdict = "agree"
    if "hwst128" in profiles and "hwst128@timed" in profiles:
        a, b = profiles["hwst128"], profiles["hwst128@timed"]
        if not (a.matches(b) and a.instret == b.instret):
            timing_verdict = "divergence"
            divergences.append(Divergence(
                "timing", "iss_pipeline_mismatch",
                f"untimed {_show(a)} instret={a.instret} vs "
                f"timed {_show(b)} instret={b.instret}"))

    verdicts = {
        "scheme": scheme_verdict,
        "static": static_verdict,
        "compression": compression_verdict,
        "timing": timing_verdict,
    }

    # -- reference vs fast engine (opt-in lockstep) ------------------------
    # The verdict key appears only when the probe carried the engine
    # pair, so default campaign reports stay byte-identical.
    if "hwst128@ref" in profiles and "hwst128@fast" in profiles:
        a, b = profiles["hwst128@ref"], profiles["hwst128@fast"]
        if a.matches(b) and a.instret == b.instret:
            verdicts["engine"] = "agree"
        else:
            verdicts["engine"] = "divergence"
            divergences.append(Divergence(
                "engine", "ref_fast_mismatch",
                f"ref {_show(a)} instret={a.instret} vs "
                f"fast {_show(b)} instret={b.instret}"))

    # -- executable spec vs ISS (opt-in lockstep) --------------------------
    # Same byte-compatibility contract as the engine oracle: the
    # verdict key exists only when the probe carried a spec record.
    if probe.spec is not None:
        divergence = probe.spec.get("divergence")
        if divergence is None:
            verdicts["spec"] = "agree"
        else:
            verdicts["spec"] = "divergence"
            first = divergence.get("deltas") or [{}]
            divergences.append(Divergence(
                "spec", "spec_iss_mismatch",
                f"{divergence.get('reason')} at retire "
                f"{divergence.get('retire')} pc={divergence.get('pc')} "
                f"{divergence.get('mnemonic')}: {first[0]}"))
    return verdicts, divergences
