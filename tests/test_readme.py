"""The README's library example runs as written."""

import os
import re
import subprocess
import sys

from conftest import ROOT, src_env


def test_the_library_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "KunnethModel(s3, 1)" in block
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True,
                          text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
