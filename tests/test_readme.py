"""The README's library example runs as written, and its config block names the config schema."""

import configparser
import re
from pathlib import Path

from quantmatch.cli import CONFIG_KEYS

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


def test_config_block_names_every_config_key():
    section = README.read_text().split("### Config format", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(block)
    documented = {name: set(parser[name]) for name in parser.sections()}
    assert documented == {name: set(keys) for name, keys in CONFIG_KEYS.items()}
