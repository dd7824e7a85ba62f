"""Only ``cli.py`` knows the JSON config format.

The test reads ``src/`` with ``ast``.  A module other than ``cli.py`` that
imports ``json`` or defines ``from_json``, ``to_json`` or a ``*_from_json``
is reading or writing a config beside the command line's one section reader;
the last two such readers had their own unknown-key rule and their own
dispatch of a section's shapes, and one wrote a manifest key that no config
could read back.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ambiflow"


def config_readers(tree):
    """(line, what) for each import of ``json`` and each ``*from_json`` or ``to_json``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "json":
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            yield node.lineno, f"from {node.module} import ..."
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            node.name.endswith("from_json") or node.name == "to_json"
        ):
            yield node.lineno, f"def {node.name}"


def test_only_cli_knows_the_config_format():
    found = [
        (path.name, *reader)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cli.py"
        for reader in config_readers(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found


def test_the_guard_sees_each_form():
    source = (
        "import json\nfrom json import loads\nimport json.decoder\n"
        "def system_from_json(p): pass\n"
        "class C:\n    def to_json(self): pass\n    def from_json(cls, p): pass\n"
    )
    assert [line for line, _ in config_readers(ast.parse(source))] == [1, 2, 3, 4, 6, 7]
    assert not list(config_readers(ast.parse("import jsonschema\ndef json_path(): pass\n")))
    assert list(config_readers(ast.parse((PACKAGE / "cli.py").read_text())))
