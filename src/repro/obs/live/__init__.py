"""repro.obs.live — streaming campaign telemetry.

The live half of the observability layer: compact
:class:`~repro.obs.live.frames.TelemetryFrame` messages streamed from
campaign workers, the campaign state
(:class:`~repro.obs.live.aggregate.LiveAggregator`, the one incremental
fold of a campaign's runs, equal to the post-hoc journal merge), an
embedded stdlib HTTP endpoint
(:class:`~repro.obs.live.server.TelemetryServer` — ``/status`` JSON,
``/metrics`` Prometheus, ``/events`` SSE), a terminal dashboard
(:mod:`~repro.obs.live.dash`), and a Perfetto-loadable Chrome
trace-event export of single runs (:mod:`~repro.obs.live.chrome`).

Every campaign keeps its state in a :class:`LiveAggregator` (built by
``run_campaign`` when the caller passes none); serving it over HTTP or
streaming frames to SSE subscribers is what ``--serve``/``--dash`` add,
and a campaign with no subscriber builds no frame.
"""

from .aggregate import LiveAggregator, ShardRow, attach_campaign_info
from .chrome import to_chrome_trace, write_chrome_trace
from .dash import LocalDashboard, fetch_status, render_dashboard, run_dashboard
from .frames import TelemetryFrame
from .server import TelemetryServer, parse_serve_address

__all__ = [
    "TelemetryFrame",
    "LiveAggregator",
    "ShardRow",
    "attach_campaign_info",
    "TelemetryServer",
    "parse_serve_address",
    "render_dashboard",
    "fetch_status",
    "run_dashboard",
    "LocalDashboard",
    "to_chrome_trace",
    "write_chrome_trace",
]
