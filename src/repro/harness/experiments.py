"""Figure/table regeneration entry points.

Each ``fig*``/``tab*``/``abl*`` function reproduces one paper artefact
and returns structured data; ``main`` renders text tables. Usage::

    python -m repro.harness.experiments --list
    python -m repro.harness.experiments fig4 --scale small
    python -m repro.harness.experiments fig4 --scale small --jobs 4
    python -m repro.harness.experiments all --scale small

``scale`` selects workload inputs: "default" is the calibrated
configuration used for EXPERIMENTS.md; "small" is a fast smoke
configuration (same shapes, looser numbers).

Every experiment fans its (workload x scheme x config) cells through
:class:`repro.harness.parallel.SweepExecutor` — ``--jobs N`` runs them
on N worker processes, ``--jobs 1`` (the default) runs serially and
produces bit-identical dicts either way. Failed cells no longer abort
a sweep: the surviving rows are reported, the casualties land under
the experiment's ``"failures"`` key (rendered to stderr by ``main``,
which then exits non-zero).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional, Sequence

from repro.core.config import HwstConfig, derive_field_widths
from repro.harness.coverage import (
    PAPER_COVERAGE, coverage_table, evaluate_coverage,
)
from repro.harness.parallel import (
    CellSpec, CellResult, SweepExecutor, run_cells,
)
from repro.harness.runner import perf_overhead_pct, speedup
from repro.pipeline.hwcost import HardwareCostModel
from repro.workloads import SPEC_FIG5, WORKLOADS
from repro.workloads.juliet import corpus_counts

# Paper reference numbers -----------------------------------------------------

PAPER_FIG4_GEOMEAN = {"sbcets": 441.45, "hwst128": 152.91,
                      "hwst128_tchk": 94.89}
PAPER_FIG5_GEOMEAN = {"bogo": 1.31, "wdl_narrow": 1.58,
                      "wdl_wide": 1.64, "hwst128_tchk": 3.74}
PAPER_FIG5_HIGHLIGHTS = {"bzip2": 7.98, "hmmer": 7.78}
PAPER_HWCOST = {"luts": 1536, "lut_pct": 4.11, "ffs": 112,
                "ff_pct": 0.66, "cp_before": 5.26, "cp_after": 6.45}


def _geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError(
            "geometric mean of an empty selection — no successful "
            "measurements to aggregate")
    return math.prod(values) ** (1.0 / len(values))


def _select_workloads(workloads: Optional[Sequence[str]],
                      default: Sequence[str]) -> List[str]:
    """Validated workload selection (None means ``default``).

    An explicitly empty selection and unknown names both raise — a
    silent fallback here used to turn typos into -100% geomeans.
    """
    names = list(default if workloads is None else workloads)
    if not names:
        raise ValueError("empty workload selection")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise ValueError(
            f"unknown workload(s): {', '.join(unknown)}; known: "
            f"{', '.join(sorted(WORKLOADS))}")
    return names


def _attach_failures(data: Dict, failures: Sequence[CellResult]) -> Dict:
    """Record failed cells on the experiment dict (only when present,
    so an all-green sweep's dict is unchanged from the serial era)."""
    if failures:
        data["failures"] = [cell.failure_line() for cell in failures]
    return data


# ---------------------------------------------------------------------------
# FIG2 — metadata compression widths (Eq. 3-6 census)
# ---------------------------------------------------------------------------

def fig2_compression(scale: str = "default",
                     workloads: Optional[Sequence[str]] = None,
                     executor: Optional[SweepExecutor] = None,
                     jobs: int = 1) -> Dict:
    """Derive the compressed field widths from a workload census.

    Mirrors Section 3.3: run the suite, record the largest object and
    the number of lock_locations used, then apply Eq. 3-6 for both the
    paper's platform (256 GiB / 1 M locks -> 35/29/20/44) and the
    simulated platform.
    """
    names = _select_workloads(workloads, WORKLOADS)
    config = HwstConfig()
    cells = [CellSpec(workload=name, scheme="hwst128_tchk", scale=scale,
                      timing=False, tag=name) for name in names]
    results = run_cells(cells, executor, jobs)
    failures = [cell for cell in results if not cell.ok]
    max_range = 8
    max_locks = 1
    for cell in results:
        if not cell.ok:
            continue
        max_range = max(max_range, cell.stats.get("comp_max_range", 0))
        max_locks = max(max_locks,
                        cell.stats.get("comp_max_lock_index", 0))
    paper = derive_field_widths(256 << 30, 1 << 28, 1_000_000)
    ours = derive_field_widths(config.user_top, max_range,
                               max(max_locks, 2))
    data = {
        "census": {"max_object_bytes": max_range,
                   "lock_locations_used": max_locks,
                   "workloads": len(names)},
        "paper_platform": {"base": paper.base, "range": paper.range,
                           "lock": paper.lock, "key": paper.key},
        "sim_platform": {"base": ours.base, "range": ours.range,
                         "lock": ours.lock, "key": ours.key},
        "paper_reference": {"base": 35, "range": 29, "lock": 20,
                            "key": 44, "min_range_bits_for_spec": 25},
    }
    return _attach_failures(data, failures)


# ---------------------------------------------------------------------------
# FIG4 — performance overhead (Eq. 7)
# ---------------------------------------------------------------------------

FIG4_SCHEMES = ("sbcets", "hwst128", "hwst128_tchk")

# Extra configuration beyond the paper's: full HWST128 with the static
# redundant-check eliminator (--elide-checks) switched on.
FIG4_ELIDE = "hwst128_tchk_elide"


def fig4_overhead(scale: str = "default",
                  workloads: Optional[Sequence[str]] = None,
                  collect_metrics: bool = False,
                  include_elide: bool = True,
                  executor: Optional[SweepExecutor] = None,
                  jobs: int = 1) -> Dict:
    """Fig. 4: perf.oh of SBCETS / HWST128 / HWST128_tchk per workload.

    With ``include_elide`` (default) every workload also runs under
    ``hwst128_tchk`` with static check elision; the row then carries
    ``checks_elided`` (the ``compile.analyze.checks_elided`` counter).
    With ``collect_metrics`` every row carries the per-run metric
    snapshots (``RunResult.metrics``, keyed by scheme), which the
    ``benchmarks/`` suite saves next to the overhead numbers.

    A workload whose cells did not all run cleanly is dropped from the
    rows (and the geomean) and listed under ``"failures"`` instead of
    aborting the sweep.
    """
    names = _select_workloads(workloads, WORKLOADS)
    schemes = FIG4_SCHEMES + ((FIG4_ELIDE,) if include_elide else ())
    cells = []
    for name in names:
        for scheme in ("baseline",) + FIG4_SCHEMES:
            cells.append(CellSpec(
                workload=name, scheme=scheme, scale=scale,
                tag=f"{name}/{scheme}"))
        if include_elide:
            cells.append(CellSpec(
                workload=name, scheme="hwst128_tchk", scale=scale,
                config=HwstConfig(elide_checks=True),
                collect_registry=True, group=name,
                tag=f"{name}/{FIG4_ELIDE}"))
    by_tag = {cell.tag: cell for cell in run_cells(cells, executor, jobs)}
    rows, failures = [], []
    ratios = {scheme: [] for scheme in schemes}
    for name in names:
        row_cells = [by_tag[f"{name}/baseline"]] + \
            [by_tag[f"{name}/{scheme}"] for scheme in schemes]
        bad = [cell for cell in row_cells if not cell.ok]
        if bad:
            failures.extend(bad)
            continue
        base = by_tag[f"{name}/baseline"]
        row = {"workload": name, "group": WORKLOADS[name].group,
               "baseline_cycles": base.cycles}
        snapshots = {"baseline": base.metrics}
        for scheme in FIG4_SCHEMES:
            run = by_tag[f"{name}/{scheme}"]
            row[scheme] = perf_overhead_pct(run.cycles, base.cycles)
            ratios[scheme].append(run.cycles / base.cycles)
            snapshots[scheme] = run.metrics
        if include_elide:
            run = by_tag[f"{name}/{FIG4_ELIDE}"]
            row[FIG4_ELIDE] = perf_overhead_pct(run.cycles, base.cycles)
            row["checks_elided"] = int(
                run.obs.get("compile.analyze.checks_elided", 0))
            ratios[FIG4_ELIDE].append(run.cycles / base.cycles)
            snapshots[FIG4_ELIDE] = run.metrics
        if collect_metrics:
            row["metrics"] = snapshots
        rows.append(row)
    geomean = {scheme: 100.0 * (_geomean(values) - 1.0)
               for scheme, values in ratios.items()} if rows else {}
    data = {"rows": rows, "geomean": geomean,
            "paper_geomean": dict(PAPER_FIG4_GEOMEAN)}
    return _attach_failures(data, failures)


# ---------------------------------------------------------------------------
# FIG5 — speedup factors (Eq. 8)
# ---------------------------------------------------------------------------

FIG5_SCHEMES = ("bogo", "wdl_narrow", "wdl_wide", "hwst128_tchk")


def fig5_speedup(scale: str = "default",
                 workloads: Optional[Sequence[str]] = None,
                 executor: Optional[SweepExecutor] = None,
                 jobs: int = 1) -> Dict:
    """Fig. 5: speedup over SBCETS for the acceleration schemes.

    Note (EXPERIMENTS.md): the paper's BOGO/WDL bars are literature
    values measured on x86 against x86 SBCETS; we re-implement the
    mechanisms on the simulated RISC-V pipeline, so our measured
    factors differ in level while HWST128 remains the fastest.
    """
    names = _select_workloads(workloads, SPEC_FIG5)
    cells = []
    for name in names:
        for scheme in ("sbcets",) + FIG5_SCHEMES:
            cells.append(CellSpec(workload=name, scheme=scheme,
                                  scale=scale, tag=f"{name}/{scheme}"))
    by_tag = {cell.tag: cell for cell in run_cells(cells, executor, jobs)}
    rows, failures = [], []
    ratios = {scheme: [] for scheme in FIG5_SCHEMES}
    for name in names:
        row_cells = [by_tag[f"{name}/{scheme}"]
                     for scheme in ("sbcets",) + FIG5_SCHEMES]
        bad = [cell for cell in row_cells if not cell.ok]
        if bad:
            failures.extend(bad)
            continue
        sbcets = by_tag[f"{name}/sbcets"]
        row = {"workload": name, "sbcets_cycles": sbcets.cycles}
        for scheme in FIG5_SCHEMES:
            run = by_tag[f"{name}/{scheme}"]
            row[scheme] = speedup(sbcets.cycles, run.cycles)
            ratios[scheme].append(row[scheme])
        rows.append(row)
    geomean = {scheme: _geomean(values)
               for scheme, values in ratios.items()} if rows else {}
    data = {"rows": rows, "geomean": geomean,
            "paper_geomean": dict(PAPER_FIG5_GEOMEAN),
            "paper_highlights": dict(PAPER_FIG5_HIGHLIGHTS)}
    return _attach_failures(data, failures)


# ---------------------------------------------------------------------------
# FIG6 — Juliet security coverage
# ---------------------------------------------------------------------------

FIG6_SCHEMES = ("gcc", "asan", "sbcets", "hwst128_tchk")


def fig6_coverage(fraction: float = 0.03,
                  schemes: Sequence[str] = FIG6_SCHEMES,
                  executor: Optional[SweepExecutor] = None,
                  jobs: int = 1) -> Dict:
    """Fig. 6: coverage of GCC/ASAN/SBCETS/HWST128 on the corpus."""
    results = evaluate_coverage(schemes, fraction=fraction,
                                executor=executor, jobs=jobs)
    counts = corpus_counts()
    data = {
        "corpus": counts,
        "paper_corpus": {"spatial": 7074, "temporal": 1292,
                         "total": 8366},
        "fraction": fraction,
        "coverage": {s: r.coverage_pct for s, r in results.items()},
        "per_cwe": {s: {cwe: r.cwe_coverage_pct(cwe)
                        for cwe in sorted(r.per_cwe)}
                    for s, r in results.items()},
        "paper_coverage": dict(PAPER_COVERAGE),
        "table": coverage_table(results),
    }
    sweep_errors = [line for result in results.values()
                    for line in result.failures if "sweep error" in line]
    if sweep_errors:
        data["failures"] = sweep_errors
    return data


# ---------------------------------------------------------------------------
# TAB-HW — Section 5.3 hardware cost
# ---------------------------------------------------------------------------

def hwcost_table(config: Optional[HwstConfig] = None) -> Dict:
    report = HardwareCostModel(config or HwstConfig()).report()
    return {
        "added_luts": report.added_luts,
        "lut_overhead_pct": round(report.lut_overhead_pct, 2),
        "added_ffs": report.added_ffs,
        "ff_overhead_pct": round(report.ff_overhead_pct, 2),
        "critical_path_before_ns": report.baseline_critical_path_ns,
        "critical_path_after_ns": report.critical_path_ns,
        "paper": dict(PAPER_HWCOST),
        "components": [(c.name, c.luts, c.ffs)
                       for c in report.components],
        "table": report.table(),
    }


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

def abl_keybuffer(sizes: Sequence[int] = (0, 1, 2, 4, 8, 16, 32),
                  workloads: Sequence[str] = ("bzip2", "hmmer", "tsp"),
                  scale: str = "default",
                  policies: Sequence[str] = ("lru",),
                  collect_metrics: bool = False,
                  executor: Optional[SweepExecutor] = None,
                  jobs: int = 1) -> Dict:
    """ABL-KB: keybuffer size/policy sweep (design choice of §3.5)."""
    names = _select_workloads(workloads, workloads)
    cells = []
    for policy in policies:
        for size in sizes:
            for name in names:
                cells.append(CellSpec(
                    workload=name, scheme="hwst128_tchk", scale=scale,
                    config=HwstConfig(keybuffer_entries=size,
                                      keybuffer_policy=policy),
                    group=name, tag=f"{name}/kb{size}/{policy}"))
    by_tag = {cell.tag: cell for cell in run_cells(cells, executor, jobs)}
    rows, failures = [], []
    for policy in policies:
        for size in sizes:
            entry = {"entries": size, "policy": policy}
            for name in names:
                run = by_tag[f"{name}/kb{size}/{policy}"]
                if not run.ok:
                    failures.append(run)
                    continue
                hits = run.stats.get("kb_hits", 0)
                misses = run.stats.get("kb_misses", 0)
                entry[name] = {
                    "cycles": run.cycles,
                    "hit_rate": hits / (hits + misses) if hits + misses
                    else 0.0,
                }
                if collect_metrics:
                    entry[name]["metrics"] = run.metrics
            rows.append(entry)
    data = {"rows": rows, "workloads": list(names),
            "policies": list(policies)}
    return _attach_failures(data, failures)


def abl_compression(workloads: Sequence[str] = ("tsp", "health",
                                                "bzip2"),
                    scale: str = "default",
                    executor: Optional[SweepExecutor] = None,
                    jobs: int = 1) -> Dict:
    """ABL-COMP: compressed 128-bit metadata (HWST128) vs uncompressed
    256-bit metadata (the WDL-wide datapath) — half the through-memory
    metadata traffic is the compression win of Section 3.3.

    Every cell's ``ok`` is checked: a faulted or aborted run lands in
    ``"failures"`` instead of feeding bogus cycles into the overheads.
    """
    names = _select_workloads(workloads, workloads)
    cells = []
    for name in names:
        for scheme in ("baseline", "hwst128_tchk", "wdl_wide"):
            cells.append(CellSpec(workload=name, scheme=scheme,
                                  scale=scale, tag=f"{name}/{scheme}"))
    by_tag = {cell.tag: cell for cell in run_cells(cells, executor, jobs)}
    rows, failures = [], []
    for name in names:
        base = by_tag[f"{name}/baseline"]
        compressed = by_tag[f"{name}/hwst128_tchk"]
        uncompressed = by_tag[f"{name}/wdl_wide"]
        bad = [cell for cell in (base, compressed, uncompressed)
               if not cell.ok]
        if bad:
            failures.extend(bad)
            continue
        rows.append({
            "workload": name,
            "compressed_oh": perf_overhead_pct(compressed.cycles,
                                               base.cycles),
            "uncompressed_oh": perf_overhead_pct(uncompressed.cycles,
                                                 base.cycles),
            "compressed_shadow_bytes": compressed.stats["shadow_bytes"],
            "uncompressed_shadow_bytes":
                uncompressed.stats["shadow_bytes"],
        })
    return _attach_failures({"rows": rows}, failures)


def abl_shadow_map(workloads: Sequence[str] = ("tsp", "health",
                                               "bzip2"),
                   scale: str = "default",
                   executor: Optional[SweepExecutor] = None,
                   jobs: int = 1) -> Dict:
    """ABL-LMSM: SBCETS with its two-level trie vs the linear-mapped
    shadow memory (the paper's hardware-friendly choice, Section 2).

    Like :func:`abl_compression`, rows are built only from cells that
    ran cleanly; the rest are reported as failures.
    """
    names = _select_workloads(workloads, workloads)
    cells = []
    for name in names:
        for scheme in ("baseline", "sbcets", "sbcets_lmsm"):
            cells.append(CellSpec(workload=name, scheme=scheme,
                                  scale=scale, tag=f"{name}/{scheme}"))
    by_tag = {cell.tag: cell for cell in run_cells(cells, executor, jobs)}
    rows, failures = [], []
    for name in names:
        base = by_tag[f"{name}/baseline"]
        trie = by_tag[f"{name}/sbcets"]
        linear = by_tag[f"{name}/sbcets_lmsm"]
        bad = [cell for cell in (base, trie, linear) if not cell.ok]
        if bad:
            failures.extend(bad)
            continue
        rows.append({
            "workload": name,
            "trie_oh": perf_overhead_pct(trie.cycles, base.cycles),
            "linear_oh": perf_overhead_pct(linear.cycles, base.cycles),
        })
    return _attach_failures({"rows": rows}, failures)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "fig2": lambda args: fig2_compression(
        scale=args.scale, workloads=args.workload_list,
        executor=args.executor),
    "fig4": lambda args: fig4_overhead(
        scale=args.scale, workloads=args.workload_list,
        collect_metrics=args.metrics, executor=args.executor),
    "fig5": lambda args: fig5_speedup(
        scale=args.scale, workloads=args.workload_list,
        executor=args.executor),
    "fig6": lambda args: fig6_coverage(fraction=args.fraction,
                                       executor=args.executor),
    "hwcost": lambda args: hwcost_table(),
    "abl_keybuffer": lambda args: abl_keybuffer(
        scale=args.scale, collect_metrics=args.metrics,
        executor=args.executor),
    "abl_compression": lambda args: abl_compression(
        scale=args.scale, executor=args.executor),
    "abl_shadow": lambda args: abl_shadow_map(scale=args.scale,
                                              executor=args.executor),
}


def _render(name: str, data: Dict) -> str:
    if "table" in data:
        return data["table"]
    return json.dumps(data, indent=2, default=str)


def _render_failures(name: str, failures: Sequence[str]) -> str:
    lines = [f"{name}: {len(failures)} failed cell(s):"]
    lines += [f"  {line}" for line in failures]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate HWST128 paper figures")
    parser.add_argument("experiment", nargs="?", default="all",
                        help="fig2|fig4|fig5|fig6|hwcost|abl_*|all")
    parser.add_argument("--scale", default="default",
                        choices=("default", "small"))
    parser.add_argument("--fraction", type=float, default=0.03,
                        help="Juliet corpus sample fraction")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep cells "
                        "(1 = serial, bit-identical results either way)")
    parser.add_argument("--workloads", metavar="A,B,...",
                        help="comma-separated workload subset "
                        "(fig2/fig4/fig5)")
    parser.add_argument("--metrics", action="store_true",
                        help="attach per-run metric snapshots to the "
                        "experiment data (fig4, abl_keybuffer)")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)
    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    args.workload_list = args.workloads.split(",") if args.workloads \
        else None
    selected = list(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for name in selected:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}", file=sys.stderr)
            return 1
    exit_code = 0
    with SweepExecutor(jobs=args.jobs) as executor:
        args.executor = executor
        for name in selected:
            print(f"=== {name} ===")
            try:
                data = EXPERIMENTS[name](args)
            except ValueError as err:
                print(f"error: {err}", file=sys.stderr)
                return 2
            print(_render(name, data))
            print()
            failures = data.get("failures")
            if failures:
                print(_render_failures(name, failures), file=sys.stderr)
                exit_code = 1
        print(executor.summary(), file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
