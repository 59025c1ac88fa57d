"""tools/bitcheck.py: its report and exit status, with stubbed case results."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bitcheck.py"


@pytest.fixture
def bitcheck(monkeypatch):
    """The tool with two cheap cases in place of the registrations."""
    spec = importlib.util.spec_from_file_location("bitcheck", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ours = {"grad8": [np.array([1.0, -2.0]), 3.0], "gradcheck": [1e-9] * 6}
    monkeypatch.setattr(module, "compute", lambda: ours)
    return module, ours


def run(bitcheck, capsys, monkeypatch, parent):
    module, _ = bitcheck
    monkeypatch.setattr(module, "parent_items", lambda path: parent)
    code = module.main(["parent-checkout"])
    return code, capsys.readouterr().out.splitlines()


def test_exits_0_when_every_line_is_the_same(bitcheck, capsys, monkeypatch):
    _, ours = bitcheck
    code, lines = run(bitcheck, capsys, monkeypatch,
                      {name: list(items) for name, items in ours.items()})
    assert code == 0
    assert [line.split()[-1] for line in lines[:2]] == ["same", "same"]
    assert lines[2:] == ["largest absolute deviation 0", "largest relative deviation 0"]


def test_exits_1_after_the_full_report_when_a_line_differs(bitcheck, capsys, monkeypatch):
    _, ours = bitcheck
    moved = [np.array([1.0, np.nextafter(-2.0, 0.0)]), 3.0]
    code, lines = run(bitcheck, capsys, monkeypatch,
                      {"grad8": moved, "gradcheck": list(ours["gradcheck"])})
    assert code == 1
    assert [line.split()[-1] for line in lines[:2]] == ["DIFFERENT", "same"]
    assert lines[2] == f"largest absolute deviation {2.0 - abs(moved[0][1]):.3g}"
    assert lines[3].startswith("largest relative deviation ")
    assert len(lines) == 4


def test_a_zero_of_the_other_sign_differs_at_deviation_0(bitcheck, capsys, monkeypatch):
    _, ours = bitcheck
    ours["gradcheck"][0] = 0.0
    code, lines = run(bitcheck, capsys, monkeypatch,
                      {"grad8": list(ours["grad8"]), "gradcheck": [-0.0] + [1e-9] * 5})
    assert code == 1
    assert lines[1].endswith("DIFFERENT")
    assert lines[2:] == ["largest absolute deviation 0", "largest relative deviation 0"]


def test_exits_0_without_a_parent(bitcheck, capsys):
    module, _ = bitcheck
    assert module.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and not any("parent" in line for line in lines)
