"""Design checks over the package source.

The dead-field check is name-based: a dataclass field passes when its name
is loaded as an attribute (`x.name` in a load context) anywhere in
`src/sidnn`, whichever object the load reads. So a write-only field that
shares its name with a field that is read elsewhere still passes; for
example a training-state `best_valid_rmse` that was only ever assigned
passed because the fit result's `best_valid_rmse` is read. Augmented
assignments (`x.name += 1`) store, so they do not count as reads.

The unreferenced-function check works the same way on the module-level
functions and classes: one passes when its name is loaded (a bare name or
an attribute) anywhere in `src/sidnn`, or when `__init__.py` imports it, which
exports it. A function whose name only its own body loads (recursion) passes
too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sidnn"

# module-level functions and classes kept although nothing in the package
# references them and __init__.py does not export them, each with its reason
ALLOWED_UNREFERENCED = {
    "numkit.sigmoid": "perfbench's numkit.sigmoid counter wraps it; it moves to "
                      "tests/oracles.py once that counter is repointed, in a benchmark change",
    "hpo.replay_decisions": "perfbench's search check replays the search log through it",
}

# fields kept although the package never reads them, each with its reason
ALLOWED_UNREAD = {
    "FinderResult.lrs": "the finder's sweep curve, to be written to finder.csv",
    "FinderResult.losses": "the finder's sweep curve, to be written to finder.csv",
    "FinderResult.smoothed": "the finder's sweep curve, to be written to finder.csv",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _fields_and_loads(sources):
    fields, loads = [], set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
    return fields, loads


def test_every_dataclass_field_is_read():
    fields, loads = _fields_and_loads(sorted(PACKAGE.glob("*.py")))
    assert fields, f"no dataclass fields found under {PACKAGE}"
    unread = {f for f in fields if f.split(".", 1)[1] not in loads}
    dead = sorted(unread - set(ALLOWED_UNREAD))
    assert not dead, f"dataclass fields nothing reads: {dead}"
    stale = sorted(set(ALLOWED_UNREAD) - unread)
    assert not stale, f"allowlisted fields that are now read or gone: {stale}"


def test_guard_flags_a_write_only_field(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class A:\n"
        "    kept: int\n"
        "    dead: int = 0\n"
        "a = A(1)\n"
        "a.dead = a.kept\n"
        "a.dead += 1\n"
    )
    fields, loads = _fields_and_loads([src])
    assert fields == ["A.kept", "A.dead"]
    assert "kept" in loads and "dead" not in loads


def _definitions_and_references(sources):
    """Module-level function and class names ("module.name"), every name the
    sources load as a bare name or an attribute, and the names that an
    `__init__.py` among them imports."""
    definitions, loads, exported = [], set(), set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        definitions += [f"{path.stem}.{node.name}" for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                exported |= {alias.name for alias in node.names}
    return definitions, loads, exported


def _unreferenced(sources):
    definitions, loads, exported = _definitions_and_references(sources)
    assert definitions, f"no module-level functions or classes in {sources}"
    return {d for d in definitions if d.split(".", 1)[1] not in loads | exported}


def test_every_module_function_is_referenced_or_exported():
    unreferenced = _unreferenced(sorted(PACKAGE.glob("*.py")))
    dead = sorted(unreferenced - set(ALLOWED_UNREFERENCED))
    assert not dead, f"module-level functions and classes nothing references: {dead}"
    stale = sorted(set(ALLOWED_UNREFERENCED) - unreferenced)
    assert not stale, f"allowlisted functions that are now referenced or gone: {stale}"


def test_guard_flags_an_unreferenced_function(tmp_path):
    (tmp_path / "__init__.py").write_text("from .m import exported\n")
    (tmp_path / "m.py").write_text(
        "import m\n"
        "def helper():\n"
        "    return 1\n"
        "def exported():\n"
        "    return helper() + m.Used.x\n"
        "class Used:\n"
        "    x = 0\n"
        "def dead():\n"
        "    return helper()\n"
        "class Dead:\n"
        "    pass\n"
    )
    assert _unreferenced(sorted(tmp_path.glob("*.py"))) == {"m.dead", "m.Dead"}
