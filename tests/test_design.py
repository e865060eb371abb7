"""Design checks over the package source.

The dead-field check is name-based: a dataclass field passes when its name
is loaded as an attribute (`x.name` in a load context) anywhere in
`src/sidnn`, whichever object the load reads. So a write-only field that
shares its name with a field that is read elsewhere still passes; for
example a training-state `best_valid_rmse` that was only ever assigned
passed because the fit result's `best_valid_rmse` is read. Augmented
assignments (`x.name += 1`) store, so they do not count as reads.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sidnn"

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
