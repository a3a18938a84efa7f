"""The README's library quickstart runs as written."""

import math
import os
import re


def test_readme_library_quickstart_runs(capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        section = fh.read().split("## Quickstart (library)\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert [line.partition(":")[0] for line in out] == ["optimal value", "mean reward"]
    v_star, mean = (float(line.partition(":")[2]) for line in out)
    assert 0.0 <= v_star <= 3.0 and math.isfinite(mean) and 0.0 <= mean <= 3.0
