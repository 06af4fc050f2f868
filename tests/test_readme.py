"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    trace = namespace["trace"]
    assert len(trace.records) == 1001
    loss, w2 = (float(v) for v in capsys.readouterr().out.split())
    assert loss == trace.records[-1].quantile_loss
    assert w2 < trace.records[0].wasserstein2
