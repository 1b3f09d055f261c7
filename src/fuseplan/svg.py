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
    # Each setup's pixel position, for its point and for the path.
    span_x = _WIDTH - 2 * _MARGIN
    span_y = _HEIGHT - 2 * _MARGIN
    xs = [_MARGIN + x * span_x for x in normalize_metrics(table.cost_pmi_usd)]
    ys = [_HEIGHT - _MARGIN - y * span_y for y in normalize_metrics(table.latency_ms)]

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
    parts.extend(f'<circle class="pt" cx="{x:.2f}" cy="{y:.2f}" r="2"/>' for x, y in zip(xs, ys))

    if path_steps:
        row_of = table.row_of
        for step in path_steps:
            if step.from_setup not in row_of or step.to_setup not in row_of:
                continue
            i, j = row_of[step.from_setup], row_of[step.to_setup]
            parts.append(
                f'<line class="step-{step.kind}" '
                f'x1="{xs[i]:.2f}" y1="{ys[i]:.2f}" x2="{xs[j]:.2f}" y2="{ys[j]:.2f}"/>'
            )
            parts.append(f'<circle class="step-node" cx="{xs[j]:.2f}" cy="{ys[j]:.2f}" r="3"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
