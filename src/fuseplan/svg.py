"""Self-contained SVG scatter plots of the metric space.

Hand-rolled markup keeps the output dependency-free and diffable: one circle
per setup over normalized cost (x) and normalized latency (y), plus an
optional optimization-path polyline whose fusion and resource steps are
styled differently.
"""

from __future__ import annotations

from typing import Sequence

from .analysis import OptimizationStep, normalize_metrics
from .pricing import MetricTable, SetupMetrics

_WIDTH = 640
_HEIGHT = 480
_MARGIN = 56

_STYLE = """\
  .pt { fill: #4878a8; fill-opacity: 0.45; stroke: none; }
  .axis { stroke: #222222; stroke-width: 1; }
  .label { font: 12px sans-serif; fill: #222222; }
  .step-fusion { stroke: #c03028; stroke-width: 2; fill: none; }
  .step-resource { stroke: #e08020; stroke-width: 2; stroke-dasharray: 5 3; fill: none; }
  .step-node { fill: #c03028; }
"""


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def scatter_svg(
    metrics: Sequence[SetupMetrics],
    title: str = "",
    path_steps: Sequence[OptimizationStep] | None = None,
) -> str:
    """Render the scatter (and optional path overlay) as an SVG document."""
    table = MetricTable.of(metrics)
    if not len(table):
        raise ValueError("no data")
    cost_n = normalize_metrics(table.cost_pmi_usd)
    lat_n = normalize_metrics(table.latency_ms)
    span_x = _WIDTH - 2 * _MARGIN
    span_y = _HEIGHT - 2 * _MARGIN

    def px(x: float) -> float:
        return _MARGIN + x * span_x

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN - y * span_y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f"<style>\n{_STYLE}</style>",
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<line class="axis" x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" '
        f'x2="{_WIDTH - _MARGIN}" y2="{_HEIGHT - _MARGIN}"/>',
        f'<line class="axis" x1="{_MARGIN}" y1="{_MARGIN}" '
        f'x2="{_MARGIN}" y2="{_HEIGHT - _MARGIN}"/>',
        f'<text class="label" x="{_WIDTH // 2}" y="{_HEIGHT - 16}" '
        f'text-anchor="middle">normalized cost</text>',
        f'<text class="label" x="16" y="{_HEIGHT // 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_HEIGHT // 2})">normalized latency</text>',
    ]
    if title:
        parts.append(
            f'<text class="label" x="{_WIDTH // 2}" y="24" '
            f'text-anchor="middle">{_xml_text(title)}</text>'
        )
    for x, y in zip(cost_n, lat_n):
        parts.append(
            f'<circle class="pt" cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2"/>'
        )

    if path_steps:
        row_of = table.row_of
        for step in path_steps:
            if step.from_setup not in row_of or step.to_setup not in row_of:
                continue
            i, j = row_of[step.from_setup], row_of[step.to_setup]
            x1, y1, x2, y2 = cost_n[i], lat_n[i], cost_n[j], lat_n[j]
            parts.append(
                f'<line class="step-{step.kind}" '
                f'x1="{_fmt(px(x1))}" y1="{_fmt(py(y1))}" '
                f'x2="{_fmt(px(x2))}" y2="{_fmt(py(y2))}"/>'
            )
            parts.append(
                f'<circle class="step-node" cx="{_fmt(px(x2))}" '
                f'cy="{_fmt(py(y2))}" r="3"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
