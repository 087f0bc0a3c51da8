"""The README's Library example runs as written, its code names exist and its
configuration block gives the defaults."""

import configparser
import importlib
import pkgutil
import re
from functools import reduce
from pathlib import Path

import cdrflow
from cdrflow.config import _KEYS, PipelineConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("RecoveryReport(")


def test_module_names_resolve():
    # every backticked `module.name` of a cdrflow module, bar the removed ones
    # and run files such as `trips.csv`, names an attribute of that module
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    removed = re.search(r"^\* Removed from the library:.*?(?=^\*|^#|\Z)", text, re.S | re.M)
    text = text.replace(removed.group(0), "")
    modules = {m.name for m in pkgutil.iter_modules(cdrflow.__path__)}
    missing = []
    for span in re.findall(r"`([^`\n]+)`", text):
        named = re.match(r"(?:cdrflow\.)?(\w+)\.(\w+(?:\.\w+)*)", span)
        if not named or named.group(1) not in modules:
            continue
        if re.fullmatch(r"csv|json|geojson|dot|sha256", named.group(2)):
            continue
        module = importlib.import_module(f"cdrflow.{named.group(1)}")
        try:
            reduce(getattr, named.group(2).split("."), module)
        except AttributeError:
            missing.append(named.group(0))
    assert not missing


def test_configuration_block_gives_the_defaults():
    # the block lists every key load_config reads but [run] threads, each at
    # its default value except the [paths] examples and [run] seed
    section = README.read_text(encoding="utf-8").split("### Configuration file", 1)[1]
    block = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    block.read_string(re.search(r"```ini\n(.*?)```", section, re.S).group(1))
    listed = {(name, key) for name in block.sections() for key in block[name]}
    assert listed == set(_KEYS) - {("run", "threads")}
    defaults = PipelineConfig()
    targets = {
        "": defaults, "stop_params": defaults.stop_params, "thresholds": defaults.thresholds,
        "scenario": defaults.scenario, "towers": defaults.scenario.towers,
    }
    for name, key in listed - {("run", "seed")}:
        if name != "paths":
            target, field, parse = _KEYS[name, key]
            assert parse(block[name][key]) == getattr(targets[target], field), (name, key)
