"""The dataset layer sits below the stream package."""

import subprocess
import sys
from pathlib import Path


class TestLayering:
    def test_dataset_layer_imports_no_stream_module(self):
        # Importing the dataset layer must not pull any of repro.stream in.
        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "import sys, repro.datasets; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.stream')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert result.stdout.strip() == "[]"
