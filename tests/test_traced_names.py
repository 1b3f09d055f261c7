"""Every function the bench harness traces exists under the name it traces.

The tracer in ``perfbench/spans.py`` rebinds ``fuseplan.<module>.<function>``
and every other module attribute bound to the same object, so a renamed or
deleted function would silently read 0 in the per-layer metrics.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import fuseplan.cli
import fuseplan.runner

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced() -> tuple[tuple[str, str], ...]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for module, function in traced:
        value = getattr(importlib.import_module(f"fuseplan.{module}"), function, None)
        assert callable(value), f"fuseplan.{module}.{function}"


def test_cli_runs_the_traced_engine():
    # run and path reach the engine through the CLI's own binding, which the
    # tracer rebinds only when it is the runner's function itself.
    assert fuseplan.cli.run_all is fuseplan.runner.run_all
