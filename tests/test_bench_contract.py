"""What the benchmark in ``perfbench/`` relies on: the golden CLI outputs and
toric points it checks every run against, and the functions its tracer wraps
by name.  These files are only read; nothing under ``perfbench/`` is
imported."""

import ast
import importlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from futakizero.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_golden_commands_replay_byte_identical(monkeypatch):
    monkeypatch.delenv("FUTAKIZERO_CATALOG", raising=False)
    goldens = json.loads((BENCH / "goldens" / "cli.json").read_text("utf-8"))["commands"]
    assert len(goldens) == 66
    differing = []
    for command, golden in goldens.items():
        out = io.StringIO()
        code = main(command.split(), out=out)
        if (code, out.getvalue()) != (golden["code"], golden["stdout"]):
            differing.append(command)
    assert differing == []


def test_golden_toric_points_replay():
    from futakizero import toric
    seeds = json.loads((BENCH / "goldens" / "toric_points.json").read_text("utf-8"))["seeds"]
    differing = []
    for points in seeds.values():
        for point, golden in points.items():
            family, _, text = point.partition(" ")
            params = {k: Fraction(v) for k, _, v in
                      (item.partition("=") for item in text.split(","))}
            try:
                outcome = toric.futaki_vector(toric.class_to_polytope(family, **params)).render()
            except toric.KahlerRegionError:
                outcome = "region"
            if outcome != golden:
                differing.append(point)
    assert sum(map(len, seeds.values())) > 1000 and differing == []


def _tracer_targets():
    tree = ast.parse((BENCH / "tracer.py").read_text("utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("metric,module,attr,kind", _tracer_targets())
def test_tracer_target_resolves(metric, module, attr, kind):
    # the tracer rebinds a module global, or a class's own attribute
    owner = importlib.import_module(f"futakizero.{module}")
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert name in vars(owner) and callable(getattr(owner, name)), metric
