import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_use_runs():
    # The README's "Library use" block documents the `rhs` and `inputs`
    # contract of `integrate`; it has to run against the current code.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md (Library use)", "exec"), {})


def test_src_imports_only_stdlib_numpy_and_siqr():
    # numpy is the one declared runtime dependency; anything else that
    # happens to be installed (scipy) must not be imported. The sources
    # are parsed as Python 3.10, the oldest version pyproject.toml
    # declares, so newer syntax fails here.
    allowed = set(sys.stdlib_module_names) | {"numpy", "siqr"}
    found = set()
    for path in sorted((ROOT / "src" / "siqr").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert found
    assert sorted(item for item in found if item[1] not in allowed) == []
