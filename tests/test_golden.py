"""Golden outputs: the files of the eight CLI runs in ``cli_outputs`` and of
the four benchmark workloads at full size in ``workload_outputs``,
regenerated and compared with the copies kept under ``tests/golden/``.

Text and integers must match exactly, floats within the tolerance of their
file (``TOLERANCE``), so that a CPU or numpy that rounds the last bits
differently still passes.  Whether the bytes are equal is printed (run with
-s) but not gated: it is the evidence that a change leaves an output bit for
bit as it was.
"""

import math
import re

import pytest

from cli_outputs import CONFIGS, GOLDEN, run_command
from workload_outputs import WORKLOADS, run_workload

# A number that stands alone: not a digit of a name such as hs1 or a1.
NUMBER = re.compile(r"(?<![\w.])(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)(?![\w.])")

# (rtol, atol) of the floats of each file.  rtol is far below the 1e-9
# relative change of a scaled energy and far above last-bit noise.  The
# drift_resid of run.csv and energy_drift.csv differentiates the energy
# (about 10) over dt = 0.01: a last-bit change of E moves it by up to 4e-13.
# picard.csv's later diff_hs are differences of nearly equal iterates, whose
# relative rounding is that of their size against the state's.
DEFAULT_TOLERANCE = (1e-10, 1e-13)
TOLERANCE = {"run.csv": (1e-10, 1e-10), "energy_drift.csv": (1e-10, 1e-10),
             "picard.csv": (1e-6, 1e-15)}


def _tokens(text: str) -> tuple[list[str], list[str]]:
    """The text around the numbers, and the numbers, of an output file."""
    parts = NUMBER.split(text)
    return parts[0::2], parts[1::2]


def _mismatches(new: str, old: str, rtol: float, atol: float) -> list[str]:
    new_text, new_nums = _tokens(new)
    old_text, old_nums = _tokens(old)
    if new_text != old_text:
        return ["text differs"]
    out = []
    for a, b in zip(new_nums, old_nums):
        if any(ch in b for ch in ".eE"):
            if not math.isclose(float(a), float(b), rel_tol=rtol, abs_tol=atol):
                out.append(f"{a} != {b}")
        elif a != b:
            out.append(f"integer {a} != {b}")
    return out


def _compare(out, golden, label: str) -> None:
    """Every file of golden, read again from out, within its file's tolerance."""
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in golden.iterdir())
    failures = {}
    for name in names:
        new, old = (out / name).read_text(), (golden / name).read_text()
        print(f"[golden] {label}/{name}: bytes {'equal' if new == old else 'differ'}")
        bad = _mismatches(new, old, *TOLERANCE.get(name, DEFAULT_TOLERANCE))
        if bad:
            failures[name] = bad[:5]
    assert not failures, f"{label} outputs moved from {golden}: {failures}"


@pytest.mark.parametrize("command", list(CONFIGS))
def test_outputs_match_the_golden_files(tmp_path, command):
    run_command(command, tmp_path / command, tmp_path)
    _compare(tmp_path / command, GOLDEN / command, command)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_results_match_the_golden_files(tmp_path, workload):
    run_workload(workload, tmp_path / workload, tmp_path)
    label = f"workloads/{workload}"
    _compare(tmp_path / workload, GOLDEN / label, label)


def test_mismatches_compare_text_integers_and_floats():
    assert _mismatches("hs1,x\n0.5,3\n", "hs1,x\n0.5,3\n", 1e-10, 0.0) == []
    assert _mismatches("E\n1.0000000000001\n", "E\n1.0\n", 1e-10, 0.0) == []
    assert _mismatches("E\n1.000000001\n", "E\n1.0\n", 1e-10, 0.0) == ["1.000000001 != 1.0"]
    assert _mismatches("N\n5\n", "N\n4\n", 1e-10, 0.0) == ["integer 5 != 4"]
    assert _mismatches("hs2\n1.0\n", "hs1\n1.0\n", 1e-10, 0.0) == ["text differs"]
    assert _mismatches("nan,1\n", "0.5,1\n", 1e-10, 0.0) == ["text differs"]
