"""The test configuration itself: a failing property test must report its
counterexample under the repository's warning filters."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_failing_property_test_reports_its_counterexample(tmp_path):
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", os.path.join(ROOT, "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_prop.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1, result.stdout[-2000:]
    assert "Falsifying example" in result.stdout and "x=5" in result.stdout
