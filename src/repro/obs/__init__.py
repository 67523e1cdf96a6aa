"""repro.obs — observability for simulations and campaigns.

Three layers, all inert unless explicitly attached:

* **In-sim telemetry** — pass an :class:`ObsRecorder` to
  ``SparkEngine.run_stream(..., recorder=...)`` (or
  ``run_scenario(..., recorder=...)``) and the run produces Prometheus
  -style metrics (:class:`MetricsRegistry`), sim-time scrapes of
  engine/fabric state as :class:`~repro.trace.TimeSeries`, streaming
  P² p50/p99/p99.9 latency windows (:class:`WindowedQuantiles`),
  job/stage/task-group/flow spans (:class:`SpanTracer`) exportable to
  Chrome trace-event JSON for Perfetto, and shaper throttle/redraw
  events, which the recorder reads off the fleet's ceilings once per
  event step.  Recorded cores run serially or batched through
  :func:`~repro.simulator.multistream.run_cores` alike.
* **Worker/runtime provenance** — every executed cell records wall
  time, peak RSS, and step count into its store manifest
  (:func:`cell_provenance`), and workers log structured
  ``key=value`` lines (:class:`StructuredLogger`).
* **Campaign status** — ``repro campaign status <shard-dir>``
  (:func:`campaign_status`) reads shard manifests + stores and reports
  per-shard progress, throughput, ETA, and stragglers; ``--prom``
  renders Prometheus text exposition.

The recorder only *reads* simulator state, so enabling observability
never changes results: golden traces and bench checksums are pinned
bit-identical with the recorder on and off.  ``recorder=None`` is the
one off switch, and it adds a single pointer check per event.
"""

from repro.obs.logging import StructuredLogger, format_fields
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.obs.provenance import PROVENANCE_KEY, cell_provenance
from repro.obs.quantiles import P2Quantile, WindowedQuantiles, quantile_key
from repro.obs.recorder import ObsRecorder
from repro.obs.spans import SpanTracer
from repro.obs.status import (
    CampaignStatus,
    ShardStatus,
    campaign_status,
    render_prometheus,
    render_text,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus_text",
    "StructuredLogger",
    "format_fields",
    "PROVENANCE_KEY",
    "cell_provenance",
    "P2Quantile",
    "WindowedQuantiles",
    "quantile_key",
    "ObsRecorder",
    "SpanTracer",
    "CampaignStatus",
    "ShardStatus",
    "campaign_status",
    "render_text",
    "render_prometheus",
]
