"""Size of a package's surface: source lines, public names, settable values
and optional parameters.

    python3 tests/surface_count.py                  # src/streamform
    python3 tests/surface_count.py path/to/package

prints four lines, ``lines``, ``public_names``, ``settable_values`` and
``optional_parameters``, counted by an AST scan of the package's top-level
``*.py`` files:

- lines: every line of those files, as ``wc -l`` counts them;
- public names: module-level names that do not start with ``_`` (functions,
  classes, assignments; not imports), plus, per public class, each distinct
  public name of its body (methods, properties, fields, constants) or
  assigned to ``self`` in one of its methods;
- settable values: the parameters (less ``self``/``cls``) of public
  module-level functions, of public methods and of ``__init__``, plus the
  fields of each ``@dataclass``; an annotation ``ClassVar[...]`` makes a
  constant, not a field;
- optional parameters: the parameters with a default among those of public
  module-level functions, of public methods and of ``__init__``, plus the
  fields of each ``@dataclass`` that have a default, since the generated
  ``__init__`` takes each as an optional parameter.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "streamform"


def _public(name: str) -> bool:
    return not name.startswith("_")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return getattr(annotation, "id", getattr(annotation, "attr", None)) == "ClassVar"


def _parameters(fn: ast.FunctionDef, method: bool) -> tuple[int, int]:
    """(parameters, parameters with a default) of ``fn``."""
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    if method and names and names[0] in ("self", "cls"):
        names = names[1:]
    # kw_defaults holds None for a keyword-only parameter with no default
    optional = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return len(names), optional


def _count_class(cls: ast.ClassDef) -> tuple[int, int, int]:
    """(distinct public names, settable values, optional parameters) of one
    public class."""
    names: set[str] = set()
    settable = optional = 0
    fields = _is_dataclass(cls)
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _public(item.name):
                names.add(item.name)
            if _public(item.name) or item.name == "__init__":
                params, defaulted = _parameters(item, method=True)
                settable += params
                optional += defaulted
            for node in ast.walk(item):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self"
                ):
                    names.add(node.attr)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.add(item.target.id)
            if fields and not _is_classvar(item.annotation):
                settable += 1
                optional += item.value is not None
        elif isinstance(item, ast.Assign):
            names.update(t.id for t in item.targets if isinstance(t, ast.Name))
    return sum(map(_public, names)), settable, optional


def count(package: Path) -> dict[str, int]:
    lines = public = settable = optional = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _public(node.name):
                    public += 1
                    params, defaulted = _parameters(node, method=False)
                    settable += params
                    optional += defaulted
            elif isinstance(node, ast.ClassDef):
                if _public(node.name):
                    names, values, defaulted = _count_class(node)
                    public += 1 + names
                    settable += values
                    optional += defaulted
            elif isinstance(node, ast.Assign):
                public += sum(
                    _public(t.id) for t in node.targets if isinstance(t, ast.Name)
                )
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                public += _public(node.target.id)
    return {
        "lines": lines,
        "public_names": public,
        "settable_values": settable,
        "optional_parameters": optional,
    }


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else PACKAGE
    for name, value in count(package).items():
        print(f"{name} {value}")


if __name__ == "__main__":
    main(sys.argv[1:])
