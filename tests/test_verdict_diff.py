"""tools/verdict_diff.py, the certificate comparison of two trees on the
benchmark's inputs."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_PATH = ROOT / "tools" / "verdict_diff.py"
_spec = importlib.util.spec_from_file_location("verdict_diff", _PATH)
verdict_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verdict_diff)


def test_differences_name_each_field_and_each_input_of_one_tree():
    record = {field: None for field in verdict_diff.FIELDS}
    base = {"a": dict(record, ranks=[3, 5]), "b": record}
    change = {"a": dict(record, ranks=[3, 6]), "c": record}
    assert verdict_diff.differences(base, change) == [
        "a: ranks [3, 5] -> [3, 6]", "b: only in base", "c: only in change"]
    assert verdict_diff.differences(base, base) == []
    # An exact profile's record holds the profile's fields only.
    exact = {"d_prime": 3, "indices": [1, 3], "ranks": [2, 5, 8, 11], "normal_rank_full": True}
    assert verdict_diff.differences({"e": exact}, {"e": dict(exact, indices=[2, 2])}) == [
        "e: indices [1, 3] -> [2, 2]"]


def test_this_tree_against_itself_has_no_difference():
    out = subprocess.run(
        [sys.executable, str(_PATH), str(ROOT), "--scan-seeds", "1", "--pipeline-seeds", "1"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    # 9 scan inputs, the 6 of them marked oracle once more for the exact
    # profile, and 15 pipeline inputs.
    assert lines[0] == "30 inputs, 0 differences"
    calls = {line.split(":")[0]: line.split(":")[1] for line in lines[1:]}
    assert calls["base"] == calls["change"]
