"""Hierarchical metrics registry: typed counters, gauges, histograms.

The registry is the single home for every counter the reproduction
used to scatter across ad-hoc dicts (``Machine.stats``,
``InOrderPipeline.breakdown``, ``KeyBuffer.hits`` …). Metric names are
dot-scoped (``sim.kb.hits``, ``pipeline.dcache.miss_penalty_cycles``,
``compile.lower.ms``); components create their metrics through a
:meth:`MetricsRegistry.scope` proxy so they never hard-code their own
prefix.

Design constraints (this sits under the simulator's hot loop):

* a :class:`Counter` is a bare ``__slots__`` object — handlers capture
  the counter once and bump ``counter.value`` directly, which costs no
  more than the dict increment it replaces;
* ``get``-or-create semantics: asking for an existing name returns the
  same object (so a component re-constructed after ``reset()`` keeps
  feeding the same metric);
* snapshots are plain JSON-able dicts supporting ``delta`` and
  ``merge`` for multi-run aggregation.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Union

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Scope",
    "format_tree", "merge_snapshots", "to_prometheus",
]


class Counter:
    """Monotonic counter. Hot paths mutate :attr:`value` directly."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1):
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative inc {amount}")
        self.value += amount

    def reset(self):
        self.value = 0

    def snapshot(self):
        return self.value

    def __repr__(self):
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-write-wins scalar (sizes, rates, high-water marks)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value

    def reset(self):
        self.value = 0

    def snapshot(self):
        return self.value

    def __repr__(self):
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Sample distribution with nearest-rank percentiles.

    Samples beyond ``max_samples`` still update ``count``/``sum``/
    ``min``/``max`` but are no longer stored, so percentiles become
    approximations computed over the stored prefix (documented in
    docs/observability.md; the bound keeps long runs O(1) in memory).

    Percentile edge cases: an empty histogram reports ``0.0`` for every
    percentile (``count`` disambiguates); a single-sample histogram
    reports that sample for every percentile.
    """

    __slots__ = ("name", "max_samples", "count", "total", "min", "max",
                 "_samples")
    kind = "histogram"

    def __init__(self, name: str, max_samples: int = 4096):
        self.name = name
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []

    def observe(self, value: Union[int, float]):
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._samples) < self.max_samples:
            self._samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of the stored samples, ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = max(1, -(-len(ordered) * p // 100))  # ceil without float
        return ordered[min(int(rank), len(ordered)) - 1]

    def reset(self):
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._samples.clear()

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def merge_from(self, other: "Histogram"):
        for value in other._samples:
            self.observe(value)
        # Samples beyond the other's storage bound: fold into the
        # moments only (the residual sum keeps totals exact).
        overflow = other.count - len(other._samples)
        if overflow > 0:
            self.count += overflow
            self.total += other.total - sum(other._samples)
            if other.min is not None and \
                    (self.min is None or other.min < self.min):
                self.min = other.min
            if other.max is not None and \
                    (self.max is None or other.max > self.max):
                self.max = other.max

    def __repr__(self):
        return f"Histogram({self.name}, n={self.count})"


Metric = Union[Counter, Gauge, Histogram]


class Scope:
    """Prefix proxy: ``registry.scope("sim.kb").counter("hits")`` names
    the metric ``sim.kb.hits``."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str):
        self._registry = registry
        self._prefix = prefix

    @property
    def prefix(self) -> str:
        return self._prefix

    def _full(self, name: str) -> str:
        return f"{self._prefix}.{name}" if name else self._prefix

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._full(name))

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(self._full(name))

    def histogram(self, name: str, max_samples: int = 4096) -> Histogram:
        return self._registry.histogram(self._full(name), max_samples)

    def scope(self, prefix: str) -> "Scope":
        return Scope(self._registry, self._full(prefix))

    def reset(self):
        self._registry.reset(prefix=self._prefix)

    @property
    def registry(self) -> "MetricsRegistry":
        return self._registry


class MetricsRegistry:
    """Flat name -> metric store with dot-scoped views."""

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    # -- creation ----------------------------------------------------------

    def _get_or_create(self, name: str, cls, *args) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, max_samples: int = 4096) -> Histogram:
        return self._get_or_create(name, Histogram, max_samples)

    def scope(self, prefix: str) -> Scope:
        return Scope(self, prefix)

    # -- inspection --------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self, prefix: str = "") -> List[str]:
        if not prefix:
            return sorted(self._metrics)
        dotted = prefix + "."
        return sorted(n for n in self._metrics
                      if n == prefix or n.startswith(dotted))

    def reset(self, prefix: str = ""):
        """Zero every metric (optionally only under ``prefix``)."""
        dotted = prefix + "."
        for name, metric in self._metrics.items():
            if not prefix or name == prefix or name.startswith(dotted):
                metric.reset()

    # -- snapshots ---------------------------------------------------------

    def snapshot(self, prefix: str = "") -> Dict[str, object]:
        """Flat ``name -> value`` dict (histograms become summary dicts)."""
        return {name: self._metrics[name].snapshot()
                for name in self.names(prefix)}

    def delta(self, earlier: Dict[str, object],
              prefix: str = "") -> Dict[str, object]:
        """Scalar difference ``now - earlier`` (counters/gauges).

        Histograms cannot be subtracted sample-wise; their current
        summary is passed through unchanged.
        """
        out: Dict[str, object] = {}
        for name, value in self.snapshot(prefix).items():
            before = earlier.get(name)
            if isinstance(value, dict) or not isinstance(
                    before, (int, float)):
                out[name] = value
            else:
                out[name] = value - before
        return out

    def merge(self, other: "MetricsRegistry"):
        """Fold another registry in: counters add, gauges take the
        other's value, histograms concatenate."""
        for name, metric in other._metrics.items():
            if isinstance(metric, Counter):
                self.counter(name).value += metric.value
            elif isinstance(metric, Gauge):
                self.gauge(name).value = metric.value
            else:
                self.histogram(name, metric.max_samples).merge_from(metric)

    # -- export ------------------------------------------------------------

    def tree(self, prefix: str = "") -> Dict[str, object]:
        """Nested dict view keyed by namespace segment."""
        root: Dict[str, object] = {}
        for name, value in self.snapshot(prefix).items():
            node = root
            parts = name.split(".")
            for part in parts[:-1]:
                nxt = node.setdefault(part, {})
                if not isinstance(nxt, dict):
                    # a metric named like a namespace ("a.b" + "a.b.c"):
                    # keep the leaf under a reserved key
                    nxt = node[part] = {"": nxt}
                node = nxt
            leaf = parts[-1]
            if isinstance(node.get(leaf), dict) and not isinstance(value,
                                                                   dict):
                node[leaf][""] = value
            else:
                node[leaf] = value
        return root

    def to_json(self, path=None, prefix: str = "", indent: int = 2,
                extra: Optional[Dict[str, object]] = None) -> str:
        """Serialise to the ``repro.obs.metrics/v1`` JSON document."""
        doc: Dict[str, object] = {"schema": "repro.obs.metrics/v1"}
        if extra:
            doc.update(extra)
        doc["metrics"] = self.snapshot(prefix)
        text = json.dumps(doc, indent=indent, sort_keys=False, default=str)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def _merge_hist_summaries(prev: Dict[str, object],
                          value: Dict[str, object]) -> Dict[str, object]:
    """Order-independent merge of two histogram summary dicts.

    counts/sums add, min/max combine, mean is recomputed from the
    merged moments, and the percentiles become the count-weighted
    average of the inputs' percentiles — an approximation (the raw
    samples are gone), but a *symmetric* one: pairwise weighted
    averaging is associative and commutative (up to float rounding),
    so parallel sweeps that merge worker snapshots in completion order
    still converge on the same summary whatever the order was.
    """
    pc = prev.get("count", 0)
    vc = value.get("count", 0)
    if not vc:
        return dict(prev)
    if not pc:
        return dict(value)
    count = pc + vc
    out: Dict[str, object] = {
        "count": count,
        "sum": prev.get("sum", 0) + value.get("sum", 0),
        "min": min(prev.get("min", 0.0), value.get("min", 0.0)),
        "max": max(prev.get("max", 0.0), value.get("max", 0.0)),
    }
    out["mean"] = out["sum"] / count
    for key in ("p50", "p95", "p99"):
        if key in prev or key in value:
            out[key] = (pc * prev.get(key, 0.0)
                        + vc * value.get(key, 0.0)) / count
    return out


def merge_snapshots(*snapshots: Dict[str, object]) -> Dict[str, object]:
    """Combine flat snapshots: scalars add, histogram summary dicts
    merge via :func:`_merge_hist_summaries` (exact count/sum/min/max,
    count-weighted percentile approximation). Both operations are
    commutative and associative (scalars exactly, histogram floats up
    to rounding), so multi-worker merges are order-independent."""
    out: Dict[str, object] = {}
    for snap in snapshots:
        for name, value in snap.items():
            if name not in out:
                out[name] = dict(value) if isinstance(value, dict) else value
            elif isinstance(value, dict):
                prev = out[name]
                assert isinstance(prev, dict), name
                out[name] = _merge_hist_summaries(prev, value)
            else:
                out[name] = out[name] + value
    return out


def _prom_name(name: str, prefix: str) -> str:
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    return f"{prefix}_{sanitized}" if prefix else sanitized


def to_prometheus(snapshot: Dict[str, object],
                  prefix: str = "repro") -> str:
    """Render a flat :meth:`MetricsRegistry.snapshot` in the Prometheus
    text exposition format (``repro serve``'s ``/metrics`` endpoint).

    Dots become underscores under a ``repro_`` prefix; histogram
    summary dicts expand into ``_count``/``_sum`` plus ``quantile``-
    labelled sample lines. Untyped (no TYPE metadata is emitted for
    plain scalars beyond ``gauge`` — the registry snapshot does not
    carry the metric kind, and consumers treat untyped as gauge).
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        value = snapshot[name]
        metric = _prom_name(name, prefix)
        if isinstance(value, dict):
            lines.append(f"# TYPE {metric} summary")
            for quantile, key in (("0.5", "p50"), ("0.95", "p95"),
                                  ("0.99", "p99")):
                if key in value:
                    lines.append(
                        f'{metric}{{quantile="{quantile}"}} '
                        f'{float(value[key]):g}')
            lines.append(f"{metric}_sum {float(value.get('sum', 0)):g}")
            lines.append(f"{metric}_count {int(value.get('count', 0))}")
        elif isinstance(value, bool):
            lines.append(f"{metric} {int(value)}")
        elif isinstance(value, (int, float)):
            lines.append(f"{metric} {value:g}" if isinstance(value, float)
                         else f"{metric} {value}")
        else:
            continue  # non-numeric gauge (labels, paths): not exposable
    return "\n".join(lines) + "\n"


def _fmt_scalar(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def format_tree(tree: Dict[str, object], indent: int = 0,
                derived: Optional[Dict[str, object]] = None) -> str:
    """Render a :meth:`MetricsRegistry.tree` as an indented listing."""
    lines: List[str] = []

    def walk(node: Dict[str, object], depth: int):
        pad = "  " * depth
        for key in sorted(node):
            value = node[key]
            if isinstance(value, dict) and any(
                    isinstance(v, dict) for v in value.values()) or (
                    isinstance(value, dict)
                    and not _is_hist_summary(value)):
                lines.append(f"{pad}{key}:")
                walk(value, depth + 1)
            elif isinstance(value, dict):
                summary = ", ".join(
                    f"{k}={_fmt_scalar(value[k])}"
                    for k in ("count", "mean", "p50", "p95", "p99")
                    if k in value)
                lines.append(f"{pad}{key:24s} {summary}")
            else:
                lines.append(f"{pad}{key:24s} {_fmt_scalar(value)}")

    def _is_hist_summary(value: Dict[str, object]) -> bool:
        return set(value) >= {"count", "sum", "p50"}

    walk(tree, indent)
    if derived:
        lines.append("derived:")
        for key in sorted(derived):
            lines.append(f"  {key:24s} {_fmt_scalar(derived[key])}")
    return "\n".join(lines)
