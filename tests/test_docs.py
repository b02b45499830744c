"""The README's import block and the package's re-exports name real objects."""
import ast
import importlib
import re
from pathlib import Path

import reactplan

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_entry_point_block_imports():
    section = README.read_text().split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_every_reexport_imports_from_its_module():
    tree = ast.parse(Path(reactplan.__file__).read_text())
    exports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert exports
    for module, name in exports:
        source = importlib.import_module(f"reactplan.{module}")
        namespace = {}
        exec(f"from reactplan import {name}", namespace)
        assert namespace[name] is getattr(source, name), name
