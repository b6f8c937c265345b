"""The benchmark binds program functions by name, in the traced run and in
its output checks: a rename in ``linspect`` must fail here, not only when the
benchmark runs."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
CHECKS = PERFBENCH / "checks.py"


def tracer_constants() -> dict:
    """The literal tuples that ``perfbench/tracer.py`` binds, read without
    importing it."""
    values = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "COUNTED_FUNCTIONS", "COUNTED_METHODS"):
                values[name] = ast.literal_eval(node.value)
    return values


def test_every_traced_function_resolves():
    values = tracer_constants()
    entries = values["SPANS"] + values["COUNTED_FUNCTIONS"]
    assert entries
    for module, function, _ in entries:
        owner = importlib.import_module(f"linspect.{module}")
        assert callable(getattr(owner, function, None)), f"linspect.{module}.{function}"


def test_every_counted_method_resolves():
    from linspect.structures import Structure

    for method in tracer_constants()["COUNTED_METHODS"]:
        assert callable(getattr(Structure, method, None)), f"Structure.{method}"


def checks_references() -> set:
    """(module, name) of every ``self.ls.<module>.<name>`` in
    ``perfbench/checks.py``, also through a local ``x = self.ls.<module>``."""
    tree = ast.parse(CHECKS.read_text())

    def module_of(node):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "ls"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "self"
        ):
            return node.attr
        return None

    aliases = {
        node.targets[0].id: module_of(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and module_of(node.value)
    }
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = module_of(node.value)
            if module is None and isinstance(node.value, ast.Name):
                module = aliases.get(node.value.id)
            if module is not None:
                refs.add((module, node.attr))
    return refs


def test_every_checked_function_resolves():
    refs = checks_references()
    assert ("traces", "traces_upto") in refs and ("logic", "classify") in refs
    for module, name in refs:
        owner = importlib.import_module(f"linspect.{module}")
        assert hasattr(owner, name), f"linspect.{module}.{name}"


def test_traced_bisim_counts_structure_queries(capsys):
    """The tracer counts the public ``Structure`` queries; code that bypassed
    them would read zero in the per-layer metrics."""
    import importlib.util

    from linspect.cli import main

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    tracer = module.Tracer()
    tracer.install()
    try:
        code = main(["check", "--rel", "bisim", "-k", "2", str(fixtures / "fix1.json"), str(fixtures / "fix2.json")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 1
    metrics = tracer.metrics(1)
    assert metrics["structures.successors.calls"] > 0
    assert metrics["structures.valuation.calls"] > 0
    assert metrics["games.bisim.calls"] == 1


SRC = Path(__file__).resolve().parents[1] / "src" / "linspect"

# Functions that still call themselves by name, as module.qualname.  No
# recursion may depend on input depth, so this list may only shrink.
SELF_RECURSIVE = {
    "logic.parse_formula.parse",
}


def self_recursive_functions() -> set:
    """module.qualname of every function in ``src/linspect`` whose body,
    nested definitions included, calls a plain name equal to its own."""
    found = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                if any(
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == child.name
                    for call in ast.walk(child)
                ):
                    found.add(f"{module}.{qualname}")
                visit(child, module, qualname + ".")
            else:
                visit(child, module, prefix)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_no_new_self_recursion():
    assert len(SELF_RECURSIVE) <= 1, "the allow-list may only shrink"
    found = self_recursive_functions()
    assert found - SELF_RECURSIVE == set(), "new self-recursive functions"
    assert SELF_RECURSIVE - found == set(), "no longer recursive: drop from the list"


def unused_imports() -> set:
    """module.name of every name that a module of ``src/linspect``, other than
    the package's ``__init__``, imports and never reads."""
    found = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.add((alias.asname or alias.name).split(".")[0])
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found |= {f"{path.stem}.{name}" for name in imported - read}
    return found


def test_no_unused_imports():
    assert unused_imports() == set()


README = Path(__file__).resolve().parents[1] / "README.md"


def budgets() -> dict:
    """module.name -> value of every module-level ``*_BUDGET`` constant in
    ``src/linspect``."""
    found = {}
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                name = getattr(node.targets[0], "id", "")
                if name.endswith("_BUDGET"):
                    found[f"{path.stem}.{name}"] = ast.literal_eval(node.value)
    return found


def test_budgets_in_readme():
    """Each refusal budget is stated in the README, with thousands separators."""
    found = budgets()
    assert "games.EF_TUPLE_BUDGET" in found and "unravel.UNRAVEL_NODE_BUDGET" in found
    text = README.read_text()
    missing = {name: value for name, value in found.items() if f"{value:,}" not in text}
    assert missing == {}


def private_names() -> set:
    """module.name of every module-level ``_name`` in ``src/linspect`` that a
    function, class or assignment defines."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found |= {
                f"{path.stem}.{name}"
                for name in names
                if name.startswith("_") and not name.startswith("__")
            }
    return found


def test_private_names_read_in_src():
    """A private helper that only tests read belongs in the tests."""
    read = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    names = private_names()
    assert "oracle._canon_ids" in names and "games._solve" in names
    assert {name for name in names if name.split(".")[1] not in read} == set()
