"""The README's Library example runs as written, and the code names it gives exist."""

import importlib
import pkgutil
import re
from functools import reduce
from pathlib import Path

import cdrflow

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
