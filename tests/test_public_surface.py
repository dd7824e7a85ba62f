"""Every public name has a caller in the package or the benchmark.

The test reads ``src/`` and ``perfbench/`` with ``ast``.  A name in an
``__all__`` (the package's or a module's) counts as referenced when some
code loads it by name or as an attribute, or when ``perfbench`` looks it up
by a string, as ``tracer.wrap(module, "name")`` does.  Imports and the
``__all__`` lists themselves are not references.  The names left over must
be exactly ``UNREFERENCED``, so a new public name with no caller fails here
until it gets one or goes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ambiflow"

# Public names with no caller yet, each with the reason it stays.
UNREFERENCED = {
    # ROADMAP item 4 (an ``ambiflow ball`` command) gives these a caller.
    "SamplingSchedule",
    "calibrate_flow_error",
    "growth_bound",
    # Oracles: ``ambiguity_radius`` inverts ``deviation_bound`` and the
    # radius tests check it against that bound; ``critical_rate`` is the
    # checked rate that ``invert_critical_rate`` inverts, its round trip.
    "critical_rate",
    "deviation_bound",
}


def _trees(directory):
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(directory.glob("*.py"))}


def _public_names(trees):
    names = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
    return names - {"__version__"}


def _references(tree, by_string):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif by_string and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def unreferenced_public_names():
    src, bench = _trees(PACKAGE), _trees(ROOT / "perfbench")
    used = set()
    for trees, by_string in ((src, False), (bench, True)):
        for tree in trees.values():
            used.update(_references(tree, by_string))
    return _public_names(src) - used


def test_every_public_name_has_a_caller():
    assert sorted(unreferenced_public_names()) == sorted(UNREFERENCED)
