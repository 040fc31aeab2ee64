"""Module census: every module under ``src/repro`` is reached by something
that runs.

``tests/test_option_census.py`` counts knobs; this counts modules.  The
entry points are the CLI (``repro.cli``, ``repro.__main__``) and every
script under ``benchmarks/``, ``bench/`` and ``examples/`` (CI runs the
examples).  From them the census walks imports with :mod:`ast`: a
reached module reaches everything it imports, at module level or inside
a function.  A package ``__init__`` is different.  Importing a name from
a package reaches only the module that *defines* that name, so a package
that re-exports a module nothing uses does not keep that module alive.
A module nothing reaches has to be deleted, or given a caller in the
diff that creates it: a module only tests reach does not belong under
``src/``.
"""

import ast
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.cli", "repro.__main__")
ENTRY_DIRS = ("benchmarks", "bench", "examples")


def _module_files():
    """``{dotted module name: path}`` for every module under src/repro."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


class _Census:
    def __init__(self):
        self.files = _module_files()
        self.trees = {}
        self.reached = set()
        self.names = set()
        self.todo = deque()

    def tree(self, module):
        if module not in self.trees:
            self.trees[module] = ast.parse(self.files[module].read_text())
        return self.trees[module]

    def is_package(self, module):
        return self.files[module].name == "__init__.py"

    def reach(self, module):
        """Mark ``module`` and its parent packages reached; a plain
        module's own imports are followed, a package's are not."""
        if module in self.reached or module not in self.files:
            return
        parts = module.split(".")
        for end in range(1, len(parts) + 1):
            self.reached.add(".".join(parts[:end]))
        if not self.is_package(module):
            self.todo.append(module)

    def resolve(self, module, name):
        """Reach what ``from <module> import <name>`` executes."""
        if module not in self.files or (module, name) in self.names:
            return
        self.names.add((module, name))
        self.reach(module)
        if not self.is_package(module):
            return
        for node in self.tree(module).body:
            if isinstance(node, ast.ImportFrom):
                base = _absolute(node, module, module)
                for alias in node.names:
                    if (alias.asname or alias.name) == name \
                            and base != module:
                        return self.resolve(base, alias.name)
            elif (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "_LAZY"
                            for t in node.targets)):
                # PEP 562 lazy attributes: name -> (module, attribute).
                lazy = ast.literal_eval(node.value)
                if name in lazy:
                    return self.resolve(*lazy[name])
        self.reach(f"{module}.{name}")

    def visit(self, node, module, package):
        """Follow one import statement found in ``module``."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                self.reach(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = _absolute(node, module, package)
            if base is not None and base.split(".")[0] == "repro":
                for alias in node.names:
                    self.resolve(base, alias.name)

    def walk_file(self, path, module=None, package=None):
        for node in ast.walk(ast.parse(path.read_text())):
            self.visit(node, module, package)

    def run(self):
        for module in ENTRY_MODULES:
            self.reach(module)
        for directory in ENTRY_DIRS:
            for path in sorted((ROOT / directory).rglob("*.py")):
                self.walk_file(path)
        while self.todo:
            module = self.todo.popleft()
            package = module.rsplit(".", 1)[0]
            self.walk_file(self.files[module], module, package)
        return self


def _absolute(node, module, package):
    """The absolute module an ``ImportFrom`` names, or None when it is
    relative to a file outside src/repro."""
    if not node.level:
        return node.module
    if package is None:
        return None
    parts = package.split(".")
    if node.level > 1:
        parts = parts[:-(node.level - 1)]
    if node.module:
        parts.append(node.module)
    return ".".join(parts)


def test_every_module_is_reached_from_an_entry_point():
    census = _Census().run()
    orphans = sorted(set(census.files) - census.reached)
    assert not orphans, (
        f"nothing under {', '.join(ENTRY_MODULES + ENTRY_DIRS)} reaches "
        f"{orphans}: delete them or give them a caller")
