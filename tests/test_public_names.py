"""Every public name the package declares resolves: a deleted function left
behind in an `__all__` list or in the package's own imports fails here. And
no package module imports another's private name: a helper two modules
share is public in the module that owns it. Every name a module imports is
used in it or exported."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ecwatermark

# the modules that declare their public names
MODULES = [name for name in sorted(f"ecwatermark.{m.name}"
                                   for m in pkgutil.iter_modules(ecwatermark.__path__))
           if hasattr(importlib.import_module(name), "__all__")]


def _init_imports():
    """(module, name) for every `from .module import name` in __init__.py."""
    tree = ast.parse(Path(ecwatermark.__file__).read_text(encoding="utf-8"))
    return [(f"ecwatermark.{node.module}", alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_imports_exist():
    imports = _init_imports()
    assert len(imports) > 30
    missing = [(module, name) for module, name in imports
               if not hasattr(importlib.import_module(module), name)
               or not hasattr(ecwatermark, name)]
    assert missing == []


@pytest.mark.parametrize("path", sorted(Path(ecwatermark.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_private_name_crosses_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [(node.lineno, node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _bound_names(node):
    """The names a module-level import statement binds."""
    for alias in node.names:
        yield alias.asname or alias.name.partition(".")[0]


@pytest.mark.parametrize("path", sorted(Path(ecwatermark.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    # a name a deletion left behind in an import fails here; __init__.py's
    # imports from its own package are the package's public names
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(importlib.import_module(f"ecwatermark.{path.stem}"), "__all__", ()))
    if path.name == "__init__.py":
        exported = {name for module, name in _init_imports()}
    unused = [(node.lineno, name) for node in tree.body
              if isinstance(node, ast.Import)
              or isinstance(node, ast.ImportFrom) and node.module != "__future__"
              for name in _bound_names(node) if name not in used | exported]
    assert unused == []
