import ast
import hashlib
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import siqr
from siqr.scenario import _KEYS

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


def test_package_exports_each_modules_all_and_nothing_else():
    # `siqr/__init__.py` star-imports every library module, so a public
    # name is listed once, in its module's `__all__`. `errors` holds only
    # exception classes and has no `__all__`; `cli` is the command line,
    # which `python -m siqr` imports, not part of the library.
    exported = {}
    for info in pkgutil.iter_modules(siqr.__path__):
        if info.name in ("cli", "__main__"):
            continue
        module = importlib.import_module(f"siqr.{info.name}")
        if hasattr(module, "__all__"):
            exported[module] = list(module.__all__)
        else:
            exported[module] = [
                name for name, value in vars(module).items()
                if not name.startswith("_") and inspect.isclass(value)
                and value.__module__ == module.__name__
            ]
    counts = Counter(name for names in exported.values() for name in names)
    assert [name for name, n in counts.items() if n > 1] == []
    public = {
        name for name, value in vars(siqr).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(counts)
    for module, names in exported.items():
        for name in names:
            value = getattr(module, name)
            assert getattr(siqr, name) is value, name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name


def test_readme_scenario_key_table_lists_every_key():
    # The README's table of scenario keys is the file format's reference:
    # a key added to the parser and not to the table, or left in the table
    # after it is gone, fails here.
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| key | default | accepted | meaning |", 1)[1].split("\n\n", 1)[0]
    keys = re.findall(r"^\| `([^`]+)` \|", table, re.MULTILINE)
    assert sorted(keys) == sorted(_KEYS)
    assert len(keys) == len(set(keys))


def test_cli_matrix_digests_a_case():
    # tools/cli_matrix.py compares the CLI's outputs, and the sources that
    # siqr generates, between two revisions; one CLI case and the
    # generated sources keep it running against the current code.
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_matrix.py"), str(ROOT / "src"), "full/simulate",
         "generated"],
        capture_output=True, text=True, check=True,
    )
    lines = [line.split("  ") for line in run.stdout.splitlines()]
    assert [line[:2] for line in lines] == [
        *(["full/simulate", name] for name in ("out/truth.csv", "stdout", "stderr", "exit")),
        *(["generated", f"<siqr {form} {body}>"] for form in ("field", "rk4")
          for body in ("model", "observer")),
    ]
    digests = {name: digest for _, name, digest in lines}
    assert digests["stderr"] == hashlib.sha256(b"").hexdigest()
    assert digests["exit"] == hashlib.sha256(b"0").hexdigest()
    assert run.stderr == ""
