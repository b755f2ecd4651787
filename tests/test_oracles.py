"""The reference implementations in ``oracles`` stay independent of the package."""

import ast
from pathlib import Path

# The only package names oracles.py may import: the position constants.
ALLOWED = {("quatkge.data", "HEAD"), ("quatkge.data", "TAIL")}


class TestOracleIndependence:
    def test_oracles_import_only_data_constants(self):
        source = (Path(__file__).parent / "oracles.py").read_text(encoding="utf-8")
        imported = set()
        for node in ast.walk(ast.parse(source)):  # function bodies included
            if isinstance(node, ast.Import):
                imported |= {(alias.name, None) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                imported |= {(node.module, alias.name) for alias in node.names}
        assert {(module, name) for module, name in imported
                if module.split(".")[0] == "quatkge"} <= ALLOWED
