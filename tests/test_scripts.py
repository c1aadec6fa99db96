"""The scripts under ``scripts/`` run end to end in a fresh interpreter, the
library names that they and ``perfbench/`` read exist, and the benchmark's
smoke run passes."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import typing
from collections import Counter
from pathlib import Path

import peelbound

ROOT = Path(__file__).resolve().parent.parent


def run_python(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(peelbound.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def run_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    return run_python(str(ROOT / "scripts" / name), *argv)


def test_run_families_rows(tmp_path):
    out = tmp_path / "rows.json"
    proc = run_script("run_families.py", "--gs", "3", "--ks", "3", "--prisms", "1", "--json", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())
    assert [r["instance"] for r in rows] == ["nested g=3 k=3", "H g=3 k=3", "prism k=1"]
    for r in rows:
        assert r["fse_bruteforce"] <= r["realized_peels"] <= r["peel_bound"]
        assert r["certify_seconds"] >= 0 and r["oracle_seconds"] >= 0


def test_run_families_exits_one_when_the_chain_breaks():
    # an oracle that reads fse above the realized count; the check must
    # survive -O, which strips an assert
    script = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('run_families', {str(ROOT / 'scripts' / 'run_families.py')!r})\n"
        "mod = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(mod)\n"
        "mod.fse_outerplanarity_bruteforce = lambda g: type('Fse', (), {'value': 99})\n"
        "sys.exit(mod.main(['--gs', '3', '--ks', '3', '--prisms', '']))\n"
    )
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: nested g=3 k=3: fse 99, realized peels 4, peel bound 6"
        " break fse <= realized <= peel bound\n"
    )


# ---------------------------------------------------------------------------
# Library names read by perfbench/ and scripts/, checked from their source
# ---------------------------------------------------------------------------

CALLER_FILES = sorted([*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")])
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_NESTED = (*_FUNCTIONS, ast.ClassDef, ast.Lambda)


def _own_nodes(scope):
    """The nodes of a module or function, not those of functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _NESTED):
            stack.extend(ast.iter_child_nodes(node))


def _peelbound_class(hint):
    return hint if inspect.isclass(hint) and hint.__module__.startswith("peelbound") else None


def _returns(func):
    """The peelbound class a callable returns, by its annotation; None if unknown."""
    if inspect.isclass(func):
        return _peelbound_class(func)
    if isinstance(func, property):
        func = func.fget
    try:
        return _peelbound_class(typing.get_type_hints(func).get("return"))
    except (NameError, TypeError):
        return None


def _has_attr(cls, name: str) -> bool:
    return hasattr(cls, name) or name in getattr(cls, "__dataclass_fields__", {})


class _CallerCheck:
    """Resolves the peelbound names in one file and records what they read.

    A name is typed in a function only when every binding of it there is a
    plain assignment from a value of one known peelbound class (a call
    whose return annotation names that class, or another typed name);
    attribute reads on typed names are checked against that class.
    """

    def __init__(self, tree: ast.Module):
        self.bindings: dict[str, object] = {}
        self.missing: list[str] = []
        self.attrs: set[tuple[str, str]] = set()
        self.keywords: set[tuple[str, str]] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("peelbound"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    value = getattr(module, alias.name, None)
                    if value is None:  # a submodule the package does not import itself
                        try:
                            value = importlib.import_module(f"{node.module}.{alias.name}")
                        except ImportError:
                            self.missing.append(f"line {node.lineno}: {node.module}.{alias.name}")
                    self.bindings[alias.asname or alias.name] = value
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS))]:
            self.check_scope(scope)

    def value_of(self, expr):
        """The peelbound module, function or class an expression names."""
        if isinstance(expr, ast.Name):
            return self.bindings.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self.value_of(expr.value)
            if inspect.ismodule(owner):
                return getattr(owner, expr.attr, None)
        return None

    def type_of(self, expr, types):
        """The peelbound class of the value an expression computes."""
        if isinstance(expr, ast.Name):
            return types.get(expr.id)
        if isinstance(expr, ast.Call):
            callee = self.callee(expr, types)
            return _returns(callee) if callee is not None else None
        if isinstance(expr, ast.Attribute):
            cls = self.type_of(expr.value, types)
            if cls is not None:
                hint = typing.get_type_hints(cls).get(expr.attr)
                return _peelbound_class(hint) or _returns(getattr(cls, expr.attr, None))
        return None

    def callee(self, call: ast.Call, types):
        func = self.value_of(call.func)
        if func is None and isinstance(call.func, ast.Attribute):
            cls = self.type_of(call.func.value, types)
            func = getattr(cls, call.func.attr, None) if cls is not None else None
        return func

    def scope_types(self, scope) -> dict:
        assigns = [
            n
            for n in _own_nodes(scope)
            if isinstance(n, ast.Assign) and len(n.targets) == 1 and isinstance(n.targets[0], ast.Name)
        ]
        stores = Counter(
            n.id for n in _own_nodes(scope) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        )
        stores.subtract(n.targets[0].id for n in assigns)
        if isinstance(scope, _FUNCTIONS):
            stores.update(a.arg for a in ast.walk(scope.args) if isinstance(a, ast.arg))
        # names bound only by plain assignments
        plain = {n.targets[0].id for n in assigns if stores[n.targets[0].id] == 0}
        types: dict = {}
        for _ in range(2):  # the second pass sees names typed further down
            for name in plain:
                found = {self.type_of(n.value, types) for n in assigns if n.targets[0].id == name}
                if len(found) == 1 and None not in found:
                    types[name] = found.pop()
        return types

    def check_scope(self, scope) -> None:
        types = self.scope_types(scope)
        for node in _own_nodes(scope):
            if isinstance(node, ast.Attribute):
                owner = self.value_of(node.value)
                if inspect.ismodule(owner):
                    self.attrs.add((owner.__name__, node.attr))
                    if not hasattr(owner, node.attr):
                        self.missing.append(f"line {node.lineno}: {owner.__name__}.{node.attr}")
                elif (cls := self.type_of(node.value, types)) is not None:
                    self.attrs.add((cls.__name__, node.attr))
                    if not _has_attr(cls, node.attr):
                        self.missing.append(f"line {node.lineno}: {cls.__name__}.{node.attr}")
            elif isinstance(node, ast.Call) and callable(func := self.callee(node, types)):
                try:
                    params = inspect.signature(func).parameters
                except (TypeError, ValueError):
                    continue
                takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
                for kw in node.keywords:
                    if kw.arg is None:
                        continue
                    self.keywords.add((func.__name__, kw.arg))
                    if kw.arg not in params and not takes_any:
                        self.missing.append(f"line {node.lineno}: {func.__name__}({kw.arg}=...)")


def test_perfbench_and_scripts_read_existing_library_names():
    # a library name that perfbench reads and the library no longer has
    # would otherwise only show as a failed benchmark run
    attrs: set = set()
    keywords: set = set()
    missing = []
    for path in CALLER_FILES:
        check = _CallerCheck(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        missing += [f"{path.relative_to(ROOT)} {m}" for m in check.missing]
        attrs |= check.attrs
        keywords |= check.keywords
    assert missing == []
    # the check reaches module attributes, methods and keywords alike
    assert {("peelbound.oracle", "fence_girth_bruteforce"), ("PlaneGraph", "first_face_of_vertex")} <= attrs
    assert {("CenterCertificate", "peel_bound"), ("Augmentation", "original_edge_count")} <= attrs
    assert {("fse_outerplanarity_bruteforce", "threads"), ("fence_girth_bruteforce", "budget")} <= keywords


def test_perfbench_smoke_run_passes():
    # every workload, shrunken, in both modes, through the benchmark's own
    # worker: a library change that breaks the worker fails here
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["ok"] is True
