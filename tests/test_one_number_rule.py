"""Only ``_checks.py`` tests a scalar number by hand.

The test reads ``src/`` with ``ast``.  A module other than ``_checks.py``
that imports ``numbers`` or calls ``math.isfinite`` (as ``math.isfinite(x)``
or after ``from math import isfinite``) is writing its own number rule
beside ``_checks.finite`` and ``_checks.count``; the last such rule raised
OverflowError on an int too large for a float instead of naming it.  Array
checks with ``np.isfinite`` are not scalar rules and are left alone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ambiflow"


def hand_written_rules(tree):
    """(line, what) for each import of ``numbers`` and each call of ``math.isfinite``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numbers":
                    yield node.lineno, "import numbers"
        elif isinstance(node, ast.ImportFrom) and node.module in ("numbers", "math"):
            for alias in node.names:
                if node.module == "numbers" or alias.name == "isfinite":
                    yield node.lineno, f"from {node.module} import {alias.name}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "isfinite"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "math"
        ):
            yield node.lineno, "math.isfinite"


def test_only_checks_tests_a_number_by_hand():
    found = [
        (path.name, *rule)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "_checks.py"
        for rule in hand_written_rules(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found


def test_the_guard_sees_each_form():
    source = "import numbers\nfrom numbers import Real\nfrom math import isfinite\nmath.isfinite(x)\n"
    assert [line for line, _ in hand_written_rules(ast.parse(source))] == [1, 2, 3, 4]
    assert not list(hand_written_rules(ast.parse("np.isfinite(x)\nimport math\n")))
    assert list(hand_written_rules(ast.parse((PACKAGE / "_checks.py").read_text())))
