"""Every `module.name` that README.md gives for a moelearn module names
something that module has, so a change that deletes or renames a name must
update the README too."""

import importlib
import re
from pathlib import Path

import moelearn

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(p.stem for p in Path(moelearn.__file__).parent.glob("[!_]*.py"))
REFERENCE = re.compile(rf"`({'|'.join(MODULES)})\.([A-Za-z_]\w*)`")
FILE_SUFFIXES = ("csv", "json")   # `model.json` is a file, not a name


def test_readme_module_references_resolve():
    refs = [(module, name) for module, name in REFERENCE.findall(README.read_text())
            if name not in FILE_SUFFIXES]
    assert refs
    missing = [f"{module}.{name}" for module, name in refs
               if not hasattr(importlib.import_module(f"moelearn.{module}"), name)]
    assert not missing, f"README names what does not exist: {missing}"
