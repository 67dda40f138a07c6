"""The package keeps the names its benchmark wraps, its listed memos, and
no dead helper.

``perfbench/tracer.py`` wraps package callables by name (``TARGETS``) and
reads ``cache_info`` of some of them (``CACHED``), so a rename or a dropped
cache silently changes the traced benchmark.  A memo that lives for the
whole process is listed in ``MEMOS`` with its reason, so a new one is a
visible decision.  A public function or class that ``ncgeode.__all__`` does
not export, no other code of the package calls, and neither the tracer nor
a benchmark script names, is dead code.  These tests parse the tracer and
the scripts; they import neither.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import ncgeode

PACKAGE = Path(ncgeode.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_assignment(name: str) -> ast.expr:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"perfbench/tracer.py assigns no {name}")


def _targets() -> list[tuple[str, str]]:
    """(module, attribute) of every ``TARGETS`` entry."""
    return [(entry.elts[0].value, entry.elts[1].value)
            for entry in _tracer_assignment("TARGETS").elts]


def _resolve(module: str, attr: str):
    obj = importlib.import_module(f"ncgeode.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, attr", _targets())
def test_tracer_target_resolves(module, attr):
    assert callable(_resolve(module, attr))


CACHED = ast.literal_eval(_tracer_assignment("CACHED"))


@pytest.mark.parametrize("name", CACHED)
def test_cached_tracer_target_keeps_its_cache(name):
    assert callable(getattr(_resolve(*CACHED[name]), "cache_info", None))


# Every function of the package under a process-wide memo decorator, and why
# its memo lives as long as the process.
MEMOS = {
    "cli.build_parser": "parsing leaves the parser unchanged",
    "coeffring._part": "a partition decoded from its monomial key, no series",
    "coeffring.elementary_of_multiple": "the tracer reads its cache_info (CACHED)",
    "combinat._compositions": "the compositions of a degree, no series",
    "lagrange.solve_g": "the tracer reads its cache_info (CACHED)",
    "lagrange.delta_coefficient": "the tracer reads its cache_info (CACHED)",
    "schroeder.delta_e_coefficient": "the tracer reads its cache_info (CACHED)",
    "lagrange.g_t": "the one series cache, ncsf.longest",
    "lagrange.gamma_t": "the one series cache, ncsf.longest",
    "lagrange.theta_t": "the one series cache, ncsf.longest",
    "schroeder.gamma_e": "the one series cache, ncsf.longest",
}


def _is_memo(decorator: ast.expr) -> bool:
    """Whether a decorator is ``lru_cache``, ``cache`` or ``longest``: bare,
    called, or read off a module."""
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("lru_cache", "cache", "longest")


def test_every_process_wide_memo_is_listed():
    found = {f"{path.stem}.{node.name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef)
             and any(map(_is_memo, node.decorator_list))}
    assert found == set(MEMOS)
    assert {name for name, why in MEMOS.items() if "(CACHED)" in why} == {
        f"{module}.{attr}" for module, attr in CACHED.values()}


def _names_read(node: ast.AST) -> set[str]:
    """Every name that ``node`` reads, bare or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_definition_is_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    # the names read by each top-level statement of the package
    reads = [(module, node, _names_read(node))
             for module, tree in trees.items() for node in tree.body]
    outside = set(ncgeode.__all__) | {attr.split(".")[0] for _, attr in _targets()}
    for path in PERFBENCH.glob("*.py"):
        outside |= _names_read(ast.parse(path.read_text()))
    unused = [f"{module}.{node.name}" for module, node, _ in reads
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in outside
              and not any(node.name in names for _, other, names in reads if other is not node)]
    assert unused == []
