"""The ``repro.serve/v1`` wire protocol and the pure evaluation core.

:func:`evaluate` is the service's whole value in one pure function:
``(source, schemes, options) -> envelope dict``, no global state, no
timestamps, no host measurements — which is what makes the service's
core invariant checkable: a verdict served under load must be
**byte-identical** (:func:`canonical_json`) to the same source
compiled and checked offline. Everything nondeterministic (cache
hits, coalescing, queueing) lives outside the envelope, under the
transport key the server adds.

The envelope carries, per requested scheme: the run verdict through
the existing :func:`repro.harness.runner.run_program` path (status,
exit code, detection classification, trap report, guest counts, the
same documented CLI exit code ``repro run`` would have returned), the
``repro.analyze`` linter findings, and an overhead estimate (Eq. 7
cycles vs the uninstrumented baseline).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Sequence, Tuple

from repro.core.config import HwstConfig
from repro.errors import ReproError, ToolchainError, exit_code_for, \
    exit_code_for_status

__all__ = ["SCHEMA", "DEFAULT_SCHEMES", "MAX_SOURCE_BYTES",
           "RequestError", "canonical_json", "evaluate",
           "parse_request", "request_fingerprint"]

SCHEMA = "repro.serve/v1"

#: Default scheme verdict set: the unprotected-but-hardened compiler
#: baseline, the software reference, and the full accelerator.
DEFAULT_SCHEMES: Tuple[str, ...] = ("gcc", "sbcets", "hwst128_tchk")

#: Request-body source cap (documented 413 above it).
MAX_SOURCE_BYTES = 64 * 1024

#: Server-side ceiling on the per-request step budget; requests may
#: lower it, never raise it.
MAX_INSTRUCTIONS_CAP = 20_000_000
DEFAULT_MAX_INSTRUCTIONS = 5_000_000

#: Output bytes echoed back per verdict (deterministic truncation).
_OUTPUT_CAP = 4096


def canonical_json(doc: dict) -> str:
    """The byte-identity serialisation of an envelope."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class RequestError(ValueError):
    """A request the server refuses before any compilation happens.

    ``http_status`` is the documented mapping (400 malformed JSON or
    fields, 413 source too large); ``kind`` is the machine-readable
    error tag echoed in the response body.
    """

    def __init__(self, kind: str, detail: str, http_status: int = 400):
        super().__init__(detail)
        self.kind = kind
        self.http_status = http_status


def request_fingerprint(source: str, schemes: Sequence[str],
                        elide_checks: bool,
                        max_instructions: int) -> str:
    """Content address of a request: identical in-flight submissions
    coalesce on this key, completed ones hit the result cache on it."""
    doc = {"source_sha256":
           hashlib.sha256(source.encode("utf-8")).hexdigest(),
           "schemes": list(schemes),
           "elide_checks": bool(elide_checks),
           "max_instructions": int(max_instructions)}
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def parse_request(body: bytes,
                  max_source_bytes: int = MAX_SOURCE_BYTES,
                  allow_debug: bool = False) -> Dict[str, object]:
    """Validate a ``POST /v1/check`` body into a request dict.

    Raises :class:`RequestError` on anything malformed; never touches
    the compiler. The returned dict carries ``source``, ``schemes``,
    ``elide_checks``, ``max_instructions``, ``fingerprint`` and (only
    with ``allow_debug``) the fault-injection ``debug`` block the soak
    tests use.
    """
    from repro.schemes import SCHEMES

    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise RequestError("bad_json", f"request body is not JSON: "
                           f"{err}") from None
    if not isinstance(doc, dict):
        raise RequestError("bad_request", "request body must be a JSON "
                           "object")
    source = doc.get("source")
    if not isinstance(source, str) or not source.strip():
        raise RequestError("bad_source", "'source' must be a non-empty "
                           "string of mini-C")
    if len(source.encode("utf-8")) > max_source_bytes:
        raise RequestError(
            "source_too_large",
            f"source exceeds {max_source_bytes} bytes",
            http_status=413)
    schemes = doc.get("schemes", list(DEFAULT_SCHEMES))
    if not (isinstance(schemes, list) and schemes
            and all(isinstance(s, str) for s in schemes)):
        raise RequestError("bad_schemes", "'schemes' must be a "
                           "non-empty list of scheme names")
    unknown = [s for s in schemes if s not in SCHEMES]
    if unknown:
        raise RequestError(
            "unknown_scheme",
            f"unknown scheme(s) {unknown}; known: {sorted(SCHEMES)}")
    elide = doc.get("elide_checks", False)
    if not isinstance(elide, bool):
        raise RequestError("bad_request", "'elide_checks' must be a "
                           "boolean")
    budget = doc.get("max_instructions", DEFAULT_MAX_INSTRUCTIONS)
    if not isinstance(budget, int) or isinstance(budget, bool) or \
            budget < 1:
        raise RequestError("bad_request", "'max_instructions' must be "
                           "a positive integer")
    budget = min(budget, MAX_INSTRUCTIONS_CAP)
    debug = doc.get("debug")
    if debug is not None and not allow_debug:
        raise RequestError("bad_request", "'debug' requires the server "
                           "to run with --debug-faults")
    if debug is not None and not isinstance(debug, dict):
        raise RequestError("bad_request", "'debug' must be an object")
    fingerprint = request_fingerprint(source, schemes, elide, budget)
    if debug:
        # Planted-fault requests must never coalesce with (or cache-
        # poison) the identical real request.
        fingerprint = hashlib.sha256(
            (fingerprint + json.dumps(debug, sort_keys=True))
            .encode("utf-8")).hexdigest()
    return {
        "source": source,
        "schemes": tuple(schemes),
        "elide_checks": elide,
        "max_instructions": budget,
        "debug": debug or {},
        "fingerprint": fingerprint,
    }


def _trap_report(result) -> Optional[Dict[str, object]]:
    if not result.trap_class:
        return None
    return {
        "class": result.trap_class,
        "pc": result.trap_pc,
        "detail": result.detail,
    }


def _verdict(scheme: str, result) -> Dict[str, object]:
    from repro.harness.runner import detected

    return {
        "status": result.status,
        "exit_code": result.exit_code,
        "cli_exit_code": exit_code_for_status(result.status,
                                              result.exit_code),
        "detected": detected(scheme, result),
        "instret": result.instret,
        "cycles": result.cycles,
        "output": result.output[:_OUTPUT_CAP].decode(
            "utf-8", errors="replace"),
        "trap": _trap_report(result),
    }


def _error_verdict(err: ReproError) -> Dict[str, object]:
    return {
        "status": "toolchain_error",
        "error": f"{type(err).__name__}: {err}",
        "cli_exit_code": exit_code_for(err),
        "detected": False,
        "trap": None,
    }


def evaluate(source: str,
             schemes: Sequence[str] = DEFAULT_SCHEMES,
             elide_checks: bool = False,
             max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
             cache=None) -> Dict[str, object]:
    """Compile + run + lint ``source``: the pure service core.

    A deterministic function of its arguments (``cache`` only short-
    circuits identical compiles, and hands the linter the front end
    the compile just ran; the simulator is deterministic, so cached
    and fresh verdicts are identical). Toolchain failures are
    *data* — a verdict with ``status="toolchain_error"`` and the same
    documented exit code the CLI maps — never an exception, so one
    broken translation unit cannot poison a worker.
    """
    from repro.harness.runner import run_program

    config = HwstConfig(elide_checks=elide_checks)
    verdicts: Dict[str, Dict[str, object]] = {}
    runs: Dict[str, object] = {}

    def run(scheme: str):
        if scheme not in runs:
            runs[scheme] = run_program(
                source, scheme, config=config, timing=True,
                max_instructions=max_instructions, cache=cache)
        return runs[scheme]

    baseline_cycles: Optional[int] = None
    try:
        baseline = run("baseline")
        if baseline.status == "exit":
            baseline_cycles = baseline.cycles
    except ReproError:
        baseline = None

    for scheme in schemes:
        try:
            verdicts[scheme] = _verdict(scheme, run(scheme))
        except ReproError as err:
            verdicts[scheme] = _error_verdict(err)

    overhead: Dict[str, object] = {"baseline_cycles": baseline_cycles,
                                   "pct_by_scheme": {}}
    if baseline_cycles:
        for scheme, verdict in verdicts.items():
            if verdict.get("status") == "exit" and verdict["cycles"]:
                overhead["pct_by_scheme"][scheme] = round(
                    (verdict["cycles"] / baseline_cycles - 1.0) * 100.0,
                    4)

    try:
        from repro.analyze import analyze_source

        analysis = analyze_source(source, name="<request>",
                                  cache=cache).to_dict()
    except ToolchainError as err:
        analysis = {"error": f"{type(err).__name__}: {err}"}

    return {
        "schema": SCHEMA,
        "source_sha256":
            hashlib.sha256(source.encode("utf-8")).hexdigest(),
        "options": {
            "schemes": list(schemes),
            "elide_checks": bool(elide_checks),
            "max_instructions": int(max_instructions),
        },
        "verdicts": verdicts,
        "analyze": analysis,
        "overhead": overhead,
    }
