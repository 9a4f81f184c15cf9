"""The experiment scripts run end to end from a checkout, as the README shows them."""

import subprocess
import sys
from pathlib import Path

from balltrace.transforms import RADIAL_CSV_HEADER

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args):
    # the scripts put src/ on the path relative to the checkout root
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_counterexample_demo_prints_the_exact_moments():
    proc = run_script("scripts/counterexample_demo.py", "--samples", "20000")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "  normalized moment (lhs) = 1/5" in lines
    assert "  reference moment  (rhs) = 1/6" in lines


def test_radial_decay_writes_one_csv_per_case(tmp_path):
    proc = run_script("scripts/radial_decay.py", "--samples", "2000", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    written = sorted(tmp_path.glob("*.csv"))
    assert [p.stem for p in written] == ["conj_z1", "member_z1z2", "mixed_z1_conj_z2"]
    for path in written:
        assert path.read_text().startswith(RADIAL_CSV_HEADER + "\n")
