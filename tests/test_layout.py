"""Layout rules for the package source.

Every public top-level function, class and class method in
`src/path2seq` must be referenced by name somewhere in the package itself:
a helper that only the tests call belongs in the tests. Every annotation
in the package must resolve with `typing.get_type_hints`.
"""

import ast
import importlib
import inspect
import typing
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "path2seq"


def definitions_and_references(package_dir: Path) -> tuple[dict[str, str], set[str]]:
    """(public definition name -> where it is defined, every name the
    package references through a Name, an Attribute or an import alias)."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not top.name.startswith("_"):
                defined[top.name] = f"{path.stem}.{top.name}"
            if isinstance(top, ast.ClassDef):
                for item in top.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and not item.name.startswith("_"):
                        defined.setdefault(item.name, f"{path.stem}.{top.name}.{item.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rsplit(".", 1)[-1])
    return defined, referenced


def test_no_public_name_is_only_reachable_from_tests():
    defined, referenced = definitions_and_references(PACKAGE_DIR)
    assert defined, f"no definitions found under {PACKAGE_DIR}"
    unused = sorted(where for name, where in defined.items() if name not in referenced)
    assert unused == [], f"public names nothing in src/path2seq references: {unused}"


def annotated_objects():
    """(qualified name, object) for every function, class and method
    defined in the package's modules."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        module = importlib.import_module(f"path2seq.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{path.stem}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{path.stem}.{name}", obj
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield f"{path.stem}.{name}.{attr}", member


def test_every_annotation_resolves():
    broken = []
    for where, obj in annotated_objects():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            broken.append(f"{where}: {exc}")
    assert broken == [], f"annotations naming what the module does not define: {broken}"
