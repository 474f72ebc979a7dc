"""The layering rules of docs/ARCHITECTURE.md, checked on the import graph.

Every ``import`` under ``src/repro`` is read with :mod:`ast` and sorted
into *module scope* (runs when the importing module is imported; class
bodies count) and *function scope* (deferred until the function runs --
the "lazy" imports the rules allow).  Rules 1, 2, 4, 5 and 8 are
asserted on that graph, so the document and the code cannot drift
apart silently.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"


def _in(module, package):
    return module == package or module.startswith(package + ".")


def _module_name(path):
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_module(dotted):
    path = SRC.joinpath(*dotted.split("."))
    return path.with_suffix(".py").is_file() or path.is_dir()


def _targets(node, importer, is_package):
    """``(module, name)`` per alias of one import statement: the module
    it loads and the name it binds from it (``None`` for ``import``)."""
    if isinstance(node, ast.Import):
        return [(alias.name, None) for alias in node.names]
    base = node.module or ""
    if node.level:
        anchor = importer.split(".")
        drop = node.level - 1 if is_package else node.level
        anchor = anchor[:len(anchor) - drop]
        base = ".".join(anchor + ([base] if base else []))
    # ``from pkg import mod`` loads pkg.mod; ``from mod import name``
    # loads mod.
    return [(base + "." + alias.name, alias.name)
            if _is_module(base + "." + alias.name) else (base, alias.name)
            for alias in node.names]


def _collect():
    """``(importer, imported, name, lazy)`` for every repro import."""
    edges = []
    for path in sorted(PACKAGE.rglob("*.py")):
        importer = _module_name(path)
        is_package = path.name == "__init__.py"

        def walk(node, lazy):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    for target, name in _targets(child, importer,
                                                 is_package):
                        if _in(target, "repro"):
                            edges.append((importer, target, name, lazy))
                walk(child, lazy or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.Lambda)))

        walk(ast.parse(path.read_text(encoding="utf-8")), False)
    return edges


EDGES = _collect()


def _edges_from(package, lazy=None):
    return [(importer, target) for importer, target, _, is_lazy in EDGES
            if _in(importer, package) and not _in(target, package)
            and (lazy is None or is_lazy == lazy)]


def test_graph_sees_both_scopes():
    # Guard the scanner itself: the lazy PlanGuard -> lint import and a
    # module-scope kernel import must both be classified correctly.
    assert ("repro.cluster.federation", "repro.lint.engine",
            "lint_plan", True) in EDGES
    assert ("repro.cluster.node", "repro.rtos.kernel", "RTKernel",
            False) in EDGES


class TestRule1Substrate:
    """``sim`` and ``rtos`` import ``telemetry``; ``telemetry`` imports
    only ``sim.stats``; ``osgi`` imports nothing from ``rtos``."""

    @pytest.mark.parametrize("package, allowed", [
        ("repro.sim", ("repro.telemetry",)),
        ("repro.rtos", ("repro.sim", "repro.telemetry")),
        ("repro.telemetry", ("repro.sim.stats",)),
    ])
    def test_allowed_dependencies(self, package, allowed):
        offenders = [(importer, target)
                     for importer, target in _edges_from(package)
                     if not any(_in(target, ok) for ok in allowed)]
        assert not offenders, offenders

    def test_osgi_does_not_import_rtos(self):
        offenders = [(importer, target)
                     for importer, target in _edges_from("repro.osgi")
                     if _in(target, "repro.rtos")]
        assert not offenders, offenders


def test_rule2_core_does_not_import_sim():
    """``core`` reaches the simulator only through the kernel it was
    handed, so it imports nothing from ``sim`` -- not even lazily."""
    offenders = [(importer, target)
                 for importer, target in _edges_from("repro.core")
                 if _in(target, "repro.sim")]
    assert not offenders, offenders


class TestRule5ClusterOnTop:
    """``cluster`` composes whole platforms and sits below nothing: at
    module scope only ``cluster`` itself and ``lint.deployment`` (the
    ``LinkSpec`` value type, rule 8) import it; the CLI does lazily."""

    def test_module_scope_importers(self):
        offenders = [
            (importer, target, name)
            for importer, target, name, lazy in EDGES
            if not lazy and _in(target, "repro.cluster")
            and not _in(importer, "repro.cluster")
            and (importer, target, name) != (
                "repro.lint.deployment", "repro.cluster.transport",
                "LinkSpec")]
        assert not offenders, offenders

    def test_lazy_importers(self):
        importers = {importer for importer, target, _, lazy in EDGES
                     if lazy and _in(target, "repro.cluster")
                     and not _in(importer, "repro.cluster")}
        assert importers == {"repro.__main__"}


def test_rule4_only_recovery_policies_at_module_scope():
    """Module-scope ``faults`` imports are recovery policies, taken by
    ``cluster`` and ``monitor.scenario`` only; every other use is lazy."""
    offenders = [
        (importer, target, name)
        for importer, target, name, lazy in EDGES
        if not lazy and _in(target, "repro.faults")
        and not _in(importer, "repro.faults")
        and not ((_in(importer, "repro.cluster")
                  or importer == "repro.monitor.scenario")
                 and target == "repro.faults.recovery"
                 and (name or "").endswith("Policy"))]
    assert not offenders, offenders


class TestRule8LintModelsCluster:
    def test_lint_imports_only_linkspec_from_cluster(self):
        offenders = [(importer, target, name)
                     for importer, target, name, _ in EDGES
                     if _in(importer, "repro.lint")
                     and _in(target, "repro.cluster")
                     and (target, name)
                     != ("repro.cluster.transport", "LinkSpec")]
        assert not offenders, offenders

    def test_cluster_reaches_lint_lazily(self):
        offenders = [(importer, target) for importer, target
                     in _edges_from("repro.cluster", lazy=False)
                     if _in(target, "repro.lint")]
        assert not offenders, offenders

    def test_importing_cluster_loads_no_lint_module(self):
        probe = ("import sys, repro.cluster; "
                 "print(sorted(m for m in sys.modules "
                 "if m.startswith('repro.lint')))")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
