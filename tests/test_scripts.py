"""The experiment scripts run end to end on tiny instances."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_run_ladder(tmp_path):
    out = tmp_path / "ladder.json"
    proc = run_script("run_ladder.py", "--sizes", "3x4", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    committed = json.loads((ROOT / "BENCH_ladder.json").read_text())
    assert doc.keys() == committed.keys()
    [rung] = doc["ladder"]
    assert rung.keys() == committed["ladder"][0].keys()
    # no pair of the 3 x 4 rung is in range, so it has no FLOW row
    assert (rung["size"], rung["lp_rows"]) == ("3 x 4", 1 + 3 * 4)
    for figure in ("central", "admm"):
        assert rung[figure].keys() == committed["ladder"][0][figure].keys()
        assert rung[figure]["feasible"] and rung[figure]["rss_mb"] > 0
    gap = 100 * (rung["admm"]["total"] - rung["central"]["total"]) / rung["central"]["total"]
    assert rung["admm_above_lp_pct"] == round(gap, 2)


def test_make_golden_reproduces_the_committed_file(tmp_path):
    # the only script that writes MPS: HiGHS's reading and solve of each file
    # must give, byte for byte, the reference the acceptance suite checks the
    # simplex against
    out = tmp_path / "golden.json"
    proc = run_script("make_golden.py", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (ROOT / "tests" / "data" / "central_golden.json").read_bytes()
