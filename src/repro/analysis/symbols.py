"""Project symbol table: every module, class, function and import edge.

The per-file linter (:mod:`repro.analysis.lint`) sees one tree at a
time; the interprocedural passes in :mod:`repro.analysis.flow` need the
*project* — which module defines which name, what an imported alias
resolves to, and where a re-exported symbol really lives.  This module
builds that table once from parsed sources and answers name-resolution
queries against it.

Module names are derived structurally: a file's dotted name is its path
relative to the outermost ancestor directory that still carries an
``__init__.py`` (so ``src/repro/runtime/engine.py`` →
``repro.runtime.engine`` and a bare script keeps its stem).  Imports are
collected from the whole tree — this codebase deliberately defers many
imports into function bodies to break cycles, and the call graph must
see through those too.

Everything here is pure AST bookkeeping: no module is ever imported.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .lint import SourceFile

__all__ = [
    "FunctionSymbol", "ClassSymbol", "ModuleSymbol", "SymbolTable",
    "module_name_for", "parse_files",
]


def module_name_for(path: str | Path) -> str:
    """Dotted module name for a source file, derived from ``__init__.py``
    package markers on the filesystem.

    Falls back to the bare stem for stand-alone scripts (benchmarks,
    examples).  ``__init__.py`` itself names its package.
    """
    path = Path(path)
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


@dataclass
class FunctionSymbol:
    """One function or method definition."""

    qualname: str               # e.g. repro.runtime.engine.InferenceRuntime.submit
    module: "ModuleSymbol"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None   # owning class qualname, None for free functions

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionSymbol({self.qualname})"


@dataclass
class ClassSymbol:
    """One class definition plus its methods and (textual) bases."""

    qualname: str
    module: "ModuleSymbol"
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)     # dotted base names, unresolved
    methods: dict[str, FunctionSymbol] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassSymbol({self.qualname})"


@dataclass
class ModuleSymbol:
    """One parsed module: tree, suppression source, and import aliases."""

    name: str
    path: str
    tree: ast.Module
    source: SourceFile
    # Local alias -> fully qualified dotted target ("np" -> "numpy",
    # "InferenceRuntime" -> "repro.runtime.InferenceRuntime").
    imports: dict[str, str] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModuleSymbol({self.name})"


def _dotted(node: ast.expr) -> str | None:
    """Flatten a Name/Attribute chain to ``a.b.c`` (None if not a chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _package_of(module_name: str, path: str) -> str:
    """The package a module lives in, for resolving relative imports."""
    if Path(path).stem == "__init__":
        return module_name          # a package's __init__ is the package
    head, _, _tail = module_name.rpartition(".")
    return head


def _collect_imports(module: ModuleSymbol) -> None:
    package = _package_of(module.name, module.path)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                module.imports.setdefault(local, target)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: climb level-1 packages from here.
                base_parts = package.split(".") if package else []
                if node.level - 1:
                    base_parts = base_parts[: -(node.level - 1)] or []
                base = ".".join(base_parts)
            else:
                base = ""
            stem = node.module or ""
            origin = ".".join(p for p in (base, stem) if p)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                target = f"{origin}.{alias.name}" if origin else alias.name
                module.imports.setdefault(local, target)


def parse_files(paths: Sequence[str | Path]) -> list[tuple[str, str, ast.Module]]:
    """Parse files into (path, text, tree) triples, skipping syntax errors
    (the per-file linter already reports those as violations)."""
    parsed = []
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError:
            continue
        parsed.append((str(path), text, tree))
    return parsed


class SymbolTable:
    """All modules/classes/functions of one analyzed tree, queryable."""

    def __init__(self):
        self.modules: dict[str, ModuleSymbol] = {}
        self.classes: dict[str, ClassSymbol] = {}
        self.functions: dict[str, FunctionSymbol] = {}
        # Method name -> every method symbol with that name, sorted by
        # qualname so every consumer iterates deterministically.
        self.methods_by_name: dict[str, list[FunctionSymbol]] = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: Iterable[tuple[str, str, ast.Module]]) -> "SymbolTable":
        """Build from (path, text, tree) triples (see :func:`parse_files`)."""
        table = cls()
        for path, text, tree in sorted(files, key=lambda entry: entry[0]):
            name = module_name_for(path)
            if name in table.modules:
                # Stem collision between stand-alone scripts: qualify by
                # parent directory so both stay addressable.
                name = f"{Path(path).parent.name}.{name}"
            module = ModuleSymbol(name=name, path=path, tree=tree,
                                  source=SourceFile(path, text))
            _collect_imports(module)
            table.modules[name] = module
            table._index_module(module)
        for methods in table.methods_by_name.values():
            methods.sort(key=lambda symbol: symbol.qualname)
        return table

    def _index_module(self, module: ModuleSymbol) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(module, node)

    def _add_function(self, module: ModuleSymbol,
                      node: ast.FunctionDef | ast.AsyncFunctionDef,
                      class_name: str | None) -> FunctionSymbol:
        owner = class_name if class_name else module.name
        symbol = FunctionSymbol(qualname=f"{owner}.{node.name}",
                                module=module, node=node, class_name=class_name)
        self.functions[symbol.qualname] = symbol
        if class_name is not None:
            self.methods_by_name.setdefault(node.name, []).append(symbol)
        return symbol

    def _add_class(self, module: ModuleSymbol, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        symbol = ClassSymbol(qualname=qualname, module=module, node=node)
        for base in node.bases:
            dotted = _dotted(base)
            if dotted:
                symbol.bases.append(dotted)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                symbol.methods[item.name] = self._add_function(
                    module, item, class_name=qualname)
        self.classes[qualname] = symbol

    # ------------------------------------------------------------------
    def resolve(self, module: ModuleSymbol, dotted: str,
                _depth: int = 0) -> str | None:
        """Resolve a dotted name used in ``module`` to the qualname of a
        project symbol (function, class or module), following import
        aliases and package re-export chains.  Returns ``None`` for
        names that leave the analyzed tree (stdlib, numpy, …).
        """
        if _depth > 16:     # re-export cycle guard
            return None
        head, _, rest = dotted.partition(".")
        target = module.imports.get(head)
        if target is not None:
            dotted = f"{target}.{rest}" if rest else target
        elif f"{module.name}.{head}" in self.functions \
                or f"{module.name}.{head}" in self.classes:
            dotted = f"{module.name}.{dotted}"
        return self._canonical(dotted, _depth)

    def _canonical(self, dotted: str, _depth: int = 0) -> str | None:
        """Chase re-exports until ``dotted`` names a real definition."""
        if _depth > 16:     # re-export cycle guard
            return None
        if dotted in self.functions or dotted in self.classes:
            return dotted
        if dotted in self.modules:
            return dotted
        # Longest module prefix owning the head of the remainder: lets
        # "repro.runtime.InferenceRuntime" chase the package __init__'s
        # "from .engine import InferenceRuntime" re-export.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            owner = self.modules.get(prefix)
            if owner is None:
                continue
            leaf = parts[cut]
            rest = ".".join(parts[cut + 1:])
            scoped = f"{prefix}.{leaf}"
            if scoped in self.functions or scoped in self.classes:
                resolved: str | None = scoped
            elif leaf in owner.imports:
                resolved = self._canonical(owner.imports[leaf], _depth + 1) \
                    if _depth <= 16 else None
            else:
                return None
            if resolved is None:
                return None
            if not rest:
                return resolved
            if resolved in self.classes:
                # Class.method (possibly inherited from a project base).
                head, _, tail = rest.partition(".")
                method = self.class_method(resolved, head)
                if method is None:
                    return None
                return method.qualname if not tail else None
            candidate = f"{resolved}.{rest}"
            if candidate == dotted:     # nothing progressed: stop
                return None
            return self._canonical(candidate, _depth + 1)
        return None

    def class_method(self, class_qualname: str, method: str,
                     _seen: frozenset[str] = frozenset()) -> FunctionSymbol | None:
        """Look up a method on a class or (recursively) its project bases."""
        cls = self.classes.get(class_qualname)
        if cls is None or class_qualname in _seen:
            return None
        found = cls.methods.get(method)
        if found is not None:
            return found
        seen = _seen | {class_qualname}
        for base in cls.bases:
            resolved = self.resolve(cls.module, base)
            if resolved and resolved in self.classes:
                found = self.class_method(resolved, method, seen)
                if found is not None:
                    return found
        return None

    def stats(self) -> dict[str, int]:
        """Deterministic size summary (for reports and snapshots)."""
        return {
            "modules": len(self.modules),
            "classes": len(self.classes),
            "functions": len(self.functions),
        }
