import ast
import hashlib
import importlib
import inspect
import math
import pkgutil
import re
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import siqr
from siqr.models import _SIQR
from siqr.observer import _OBSERVER
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
    # tools/cli_matrix.py compares the CLI's outputs, the sources that
    # siqr generates and the library entry points no command reaches,
    # between two revisions; one CLI case, the generated sources and the
    # library digests keep it running against the current code.
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_matrix.py"), str(ROOT / "src"), "full/simulate",
         "generated", "library"],
        capture_output=True, text=True, check=True,
    )
    lines = [line.split("  ") for line in run.stdout.splitlines()]
    assert [line[:2] for line in lines] == [
        *(["full/simulate", name] for name in ("out/truth.csv", "stdout", "stderr", "exit")),
        *(["generated", f"<siqr {form} {body}>"] for form in ("field", "rk4")
          for body in ("model", "observer")),
        *(["library", f"{name} {kind}"] for kind in ("full", "simplified")
          for name in ("observer_init", "observer_rhs", "output_jets", "recover")),
        ["library", "gains"],
        ["library", "verify_pole_placement"],
    ]
    digests = {name: digest for _, name, digest in lines}
    assert digests["stderr"] == hashlib.sha256(b"").hexdigest()
    assert digests["exit"] == hashlib.sha256(b"0").hexdigest()
    assert run.stderr == ""


def test_cli_matrix_allkeys_case_moves_every_key_but_out_dir():
    # The all-keys case digests the parser's whole key set end to end: it
    # sets every key off its default but out.dir, which the tool sets.
    config, _ = runpy.run_path(str(ROOT / "tools" / "cli_matrix.py"))["_cases"]()["allkeys/estimate"]
    keys = [line.partition("=")[0].strip() for line in config.splitlines()]
    assert sorted(keys) == sorted(set(_KEYS) - {"out.dir"})
    parsed, default = siqr.parse_scenario(config), siqr.Scenario()
    assert [name for name, _ in _KEYS.values()
            if getattr(parsed, name) == getattr(default, name)] == ["out_dir"]


def test_src_takes_logs_only_in_the_observer_input_map():
    # The observer's coordinates z_i = log y_i are taken in one place,
    # `observer._inputs`, which its start, `observer_rhs` and
    # `run_observer` all read; a log anywhere else in the library could
    # give another field different bits.
    inside, outside = 0, []
    for path in sorted((ROOT / "src" / "siqr").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_inputs" \
                    and path.name == "observer.py":
                owner = {id(child) for child in ast.walk(node)}
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if getattr(func, "attr", getattr(func, "id", None)) != "log":
                continue
            if id(node) in owner:
                inside += 1
            else:
                outside.append(f"{path.name}:{node.lineno}")
    assert outside == []
    assert inside > 0


def test_src_takes_no_float_power():
    # A float `**` is libm's `pow`: its last bit follows the host's FMA
    # dispatch, it differs from the product on about a quarter of inputs,
    # and it raises OverflowError where a product gives inf. Cubes and
    # squares are written as products; a power of int literals, as
    # `MAX_STEPS = 10**6`, is exact.
    powers = []
    for path in sorted((ROOT / "src" / "siqr").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
                operands = (node.target, node.value)
            else:
                continue
            if not all(isinstance(x, ast.Constant) and type(x.value) is int for x in operands):
                powers.append(f"{path.name}:{node.lineno}")
    assert powers == []


# Attributes every NamedTuple has; their leading underscore keeps them
# apart from the field names, it does not make them private.
_NAMEDTUPLE_API = {"_fields", "_field_defaults", "_make", "_replace", "_asdict"}


def test_studies_read_no_private_siqr_name():
    # A study times or checks the library through its public names, so
    # that a private name (the RK4 template, a field body, a helper) can
    # change in one place. No file under studies/ imports an underscore
    # name from siqr, or reads one off a name it imported from siqr;
    # names that appear only in strings and docstrings do not count.
    private = []
    for path in sorted((ROOT / "studies").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names
                             if alias.name.split(".")[0] == "siqr")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "siqr":
                for alias in node.names:
                    if alias.name.startswith("_"):
                        private.append(f"{path.name}:{node.lineno} {node.module}.{alias.name}")
                    bound.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound and node.attr.startswith("_") \
                    and not node.attr.startswith("__") and node.attr not in _NAMEDTUPLE_API:
                private.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert private == []


def test_field_bodies_hold_no_int_literal():
    # The bodies run on Python floats. CPython 3.11 specializes a compare
    # or an arithmetic op of two floats, not of a float and an int:
    # `pool <= 0` costs about 20 ns a stage more than `pool <= 0.0`.
    # {dx<i>} is parsed as a subscript dx[i], whose index is no literal
    # of the body.
    for body in (_SIQR, _OBSERVER):
        tree = ast.parse(re.sub(r"\{dx(\d+)\}", r"dx[\1]", body.source))
        slots = {id(node.slice) for node in ast.walk(tree) if isinstance(node, ast.Subscript)}
        ints = [
            f"line {node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is int and id(node) not in slots
        ]
        assert ints == [], body.name


def test_frozen_benchmark_runs_against_this_src(tmp_path, monkeypatch):
    # bench/ runs the benchmark through the library's API (among others
    # `EpidemicState.from_array`, `ObserverState.as_array` and
    # `run_observer` with five arguments), so a change of that API must
    # fail here and not only in a benchmark run. Eight operations of each
    # workload and the accuracy panel of one seed run through the bench's
    # own checks. No bytecode is written under bench/.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        workloads = importlib.import_module("workloads")
        for name, cls in workloads.WORKLOADS.items():
            if cls is workloads.Cli:
                workload = cls(0, tmp_path, in_process=True)
            else:
                workload = cls(0)
            problems = []
            for i in range(8):
                inp = workload.prepare(i)
                problems.append(workload.check(i, inp, workload.run(inp)))
            problems += workload.final_check()
            assert [p for p in problems if p is not None] == [], name
        panel = workloads.accuracy(1)
    finally:
        for module in ("workloads", "reference"):
            sys.modules.pop(module, None)
    for key, value in panel.items():
        if key.startswith("rel_err_"):
            assert math.isfinite(value) and value > 0, key
    assert 0 < panel["recover_ok_frac"] <= 1


# {study: the cases its `measure` reports}
_STUDIES = {"recover_form": ["recover full", "recover simplified"]}


def test_every_study_is_a_case():
    # A study under studies/ that is not a case of the test below would
    # drop out of tier-1, and a case whose study is gone would be stale.
    assert sorted(path.stem for path in (ROOT / "studies").glob("*.py")) == sorted(_STUDIES)


@pytest.mark.parametrize("script", list(_STUDIES))
def test_study_runs_and_keeps_the_bits(monkeypatch, script):
    # studies/recover_form.py times the straight-line recoveries against
    # their helper-based form, on drawn jets and on edge jets that must
    # each raise as listed. It is tier-1's only drawn-jet oracle for the
    # recoveries, so it runs at its full 2,000 drawn jets per kind, timed
    # once: both forms must find the same values or errors.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "studies"))
    try:
        study = importlib.import_module(script)
        results = study.measure(repeats=1)
    finally:
        for module in _STUDIES:
            sys.modules.pop(module, None)
    assert sorted(results) == _STUDIES[script]
    assert [name for name, (equal, _, _) in results.items() if not equal] == []
