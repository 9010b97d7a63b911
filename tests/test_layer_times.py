"""The layer-times script of ``tools/``: one small run on one tree."""
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
KERNELS = {"contact_set", "transport_map", "abp_bound", "aleksandrov_check",
           "inf_convolution"}


def test_times_every_kernel_on_both_sides(tmp_path):
    out = tmp_path / "layers.json"
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "layer_times.py"), str(REPO),
         str(REPO), "--sizes", "9", "--rounds", "2", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert set(doc["kernels"]) == KERNELS
    for row in doc["kernels"].values():
        assert set(row) == {"9"}
        for side in ("before", "after"):
            assert len(row["9"][side]["runs_s"]) == 2
            assert row["9"][side]["median_s"] >= 0
    assert doc["git"]["before"] == doc["git"]["after"]
    assert doc["environment"]["numpy"]
