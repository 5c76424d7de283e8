"""Module naming and import-graph construction for the deep pass.

A whole-program analysis needs to know *which module a file is* (to
resolve ``from pkg.mod import helper`` against the analyzed set) without
importing anything.  :func:`module_name_for` infers the dotted name the
standard way: walk up from the file while ``__init__.py`` marks each
parent as a package.  The returned root directory is the import root —
the directory a runtime would need on ``sys.path`` — which
:func:`import_closure` uses to chase project-internal imports for
``repro certify`` without analyzing the whole tree.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Sequence, Set, Tuple

__all__ = ["import_closure", "import_graph", "imported_modules",
           "module_name_for", "resolve_import_from"]


def module_name_for(path: str) -> Tuple[str, str]:
    """``(dotted module name, import root dir)`` for a source file.

    ``src/repro/lint/engine.py`` → ``("repro.lint.engine", "src")``
    provided each of ``repro`` and ``repro/lint`` holds an
    ``__init__.py``.  A file outside any package is its own bare stem.
    ``__init__.py`` itself names the package.
    """
    absolute = os.path.abspath(path)
    directory, filename = os.path.split(absolute)
    stem = os.path.splitext(filename)[0]
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        if not package:  # pragma: no cover - filesystem root guard
            break
        parts.insert(0, package)
    return ".".join(parts) or stem, directory


def imported_modules(nodes: Iterable[ast.AST], package: str) -> List[str]:
    """Dotted module names imported by the ``Import`` / ``ImportFrom``
    statements among ``nodes`` (e.g. ``ast.walk(tree)``), sorted.

    Relative imports are resolved against ``package`` (the module's own
    package, i.e. its dotted name minus the last component).  ``from
    mod import name`` contributes ``mod`` — whether ``name`` is a
    submodule or an attribute is settled later against the analyzed
    set.
    """
    found: Set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = resolve_import_from(node, package)
            if base:
                found.add(base)
    return sorted(found)


def resolve_import_from(node: ast.ImportFrom, package: str) -> str:
    """The absolute dotted module an ``ImportFrom`` targets."""
    if node.level == 0:
        return node.module or ""
    parts = package.split(".") if package else []
    # level=1 is the current package; each extra level climbs one.
    climb = node.level - 1
    base = parts[:len(parts) - climb] if climb <= len(parts) else []
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def import_graph(modules: Dict[str, Sequence[str]]) -> Dict[str, List[str]]:
    """``module -> sorted imports``, restricted to the analyzed set.

    ``modules`` maps each analyzed module name to *all* its imports;
    the graph keeps only edges whose target is itself analyzed (a
    ``from pkg import mod`` edge recorded as ``pkg`` is promoted to
    ``pkg.mod`` when only the submodule is in the set).
    """
    names = set(modules)
    graph: Dict[str, List[str]] = {}
    for module, imports in modules.items():
        edges: Set[str] = set()
        for target in imports:
            if target in names:
                edges.add(target)
                continue
            # 'from pkg import mod' records 'pkg'; keep the edge when
            # exactly one analyzed module lives directly under it.
            children = [name for name in names
                        if name.startswith(target + ".")]
            edges.update(children if len(children) <= 4 else [])
        edges.discard(module)
        graph[module] = sorted(edges)
    return graph


def import_closure(path: str, limit: int = 512) -> List[str]:
    """Project-internal transitive import closure of one source file.

    Starting from ``path``, resolve every import against the file's
    import root and follow the ones that exist on disk, breadth-first
    and alphabetically, up to ``limit`` files.  This is how ``repro
    certify`` scopes its analysis: the target module plus everything it
    can reach, nothing else.
    """
    first = os.path.abspath(path)
    _, root = module_name_for(first)
    seen: Dict[str, None] = {first: None}
    queue = [first]
    while queue and len(seen) < limit:
        current = queue.pop(0)
        name, _ = module_name_for(current)
        package = name.rpartition(".")[0]
        try:
            with open(current, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=current)
        except (OSError, SyntaxError, ValueError):
            continue
        for target in imported_modules(ast.walk(tree), package):
            for candidate in _candidate_files(root, target):
                if candidate not in seen and os.path.isfile(candidate):
                    seen[candidate] = None
                    queue.append(candidate)
    return list(seen)


def _candidate_files(root: str, dotted: str) -> List[str]:
    """Filesystem paths a dotted module could live at under ``root``."""
    base = os.path.join(root, *dotted.split("."))
    return [base + ".py", os.path.join(base, "__init__.py")]
