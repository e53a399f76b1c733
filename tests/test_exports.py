"""Every public name and every function of the package has a user outside the test suite.

A name that only tests call belongs in ``tests/oracles.py``, not in
``src/``.  For a public name, a user is a whole-word match in the package
modules (not on the name's own ``def`` or ``class`` line, nor in an
``__all__`` list or the package's import block), in a demo, in the README
or in the benchmark.  For a function or method, a user is a reference to
its name in code outside its own definition (a name, an attribute, or a
string that is the name, as the benchmark's tracer looks functions up)
in the package, a demo or the benchmark, or a whole-word mention in the
README.  Every name the traced benchmark wraps must also exist where it
looks, and every parameter of a function under ``src/spintomo`` is read
in its body.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spintomo"


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def _without_export_lists(path):
    # the module's text with its __all__ assignment blanked out
    text = path.read_text()
    lines = text.splitlines()
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            lines[node.lineno - 1: node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def _user_texts():
    texts = {p: _without_export_lists(p) for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"}
    for pattern in ("demos/*.py", "perfbench/*.py", "README.md"):
        texts.update((p, p.read_text()) for p in sorted(ROOT.glob(pattern)))
    return texts


_TEXTS = _user_texts()


@pytest.mark.parametrize("name", _exported_names())
def test_exported_name_has_a_user_outside_the_tests(name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    users = [str(path.relative_to(ROOT)) for path, text in _TEXTS.items()
             if any(word.search(line) and not own.match(line) for line in text.splitlines())]
    assert users, f"spintomo.{name} is used only by tests; move it to tests/oracles.py"


def _traced_names():
    # the (module, attribute) pairs of perfbench/tracing.py's _WRAPPERS, read
    # from its source without importing the benchmark
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_WRAPPERS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py has no _WRAPPERS list")


@pytest.mark.parametrize("module, attr", _traced_names())
def test_traced_benchmark_wraps_names_that_exist(module, attr):
    # the traced benchmark replaces spintomo.<module>.<attr> by getattr, so a
    # name moved, renamed or no longer imported there would crash that run
    assert callable(getattr(importlib.import_module(f"spintomo.{module}"), attr, None)), \
        f"spintomo.{module}.{attr} is wrapped by perfbench/tracing.py but does not exist"


def _functions():
    # (module.qualified name, name, file, first line, last line) of every function
    # and method defined under src/spintomo, dunders aside
    found = []

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and not (
                        child.name.startswith("__") and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append((qualified, child.name, path, first, child.end_lineno))
                visit(path, child, qualified)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path, ast.parse(path.read_text()), path.stem)
    return found


def _code_references():
    # file -> [(name, line)] for every name, attribute and string constant in the
    # package (outside __all__ lists), the demos and the benchmark
    refs = {}
    for pattern in ("src/spintomo/*.py", "demos/*.py", "perfbench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            tree = ast.parse(path.read_text())
            skip = set()
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                    skip.update(map(id, ast.walk(node)))
            found = []
            for node in ast.walk(tree):
                if id(node) in skip:
                    continue
                if isinstance(node, ast.Name):
                    found.append((node.id, node.lineno))
                elif isinstance(node, ast.Attribute):
                    found.append((node.attr, node.end_lineno))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    found.append((node.value, node.lineno))
            refs[path] = found
    return refs


_FUNCTIONS = _functions()
_REFERENCES = _code_references()
_README = (ROOT / "README.md").read_text()


@pytest.mark.parametrize("function", _FUNCTIONS, ids=[f[0] for f in _FUNCTIONS])
def test_function_has_a_user_outside_its_definition(function):
    qualified, name, path, first, last = function
    users = [str(p.relative_to(ROOT)) for p, found in _REFERENCES.items()
             if any(ref == name and not (p == path and first <= line <= last)
                    for ref, line in found)]
    if re.search(rf"\b{re.escape(name)}\b", _README):
        users.append("README.md")
    assert users, f"spintomo.{qualified} is used only by tests; move it to tests/oracles.py"


def test_every_parameter_is_read_in_its_body():
    # a parameter no statement of the body loads (self and cls aside) is one
    # that callers pass for nothing
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [v for v in (a.vararg, a.kwarg) if v is not None]]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.stem}.{name}({p})" for p in params
                       if p not in ("self", "cls") and p not in read]
    assert not unread, f"parameters never read in their function's body: {unread}"
