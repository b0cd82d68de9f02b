"""The tests' oracle module stays independent and the only copy.

conftest.py loads perfbench/oracles.py by its file path, and every test
takes primes, factorisations, Kronecker symbols, fundamental
discriminants, Bernoulli numbers and divisor sums from it.  Its answers
confirm the library's only while it imports nothing but the standard
library, and it stays the one copy only while no test file defines its own
function of the same name."""

import ast
import sys
from pathlib import Path

from conftest import ROOT

ORACLES = ROOT / "perfbench" / "oracles.py"

# the private copies the test files kept before they took oracles.py's
FORMER_COPIES = {
    "primes_below",
    "trial_division",
    "brute_sigma",
    "_kronecker_prime",
    "_is_fundamental",
}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_oracles_import_only_the_standard_library():
    tree = ast.parse(ORACLES.read_text())
    outside = [
        name
        for name in _imported_modules(tree)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_no_test_file_defines_its_own_oracle():
    tree = ast.parse(ORACLES.read_text())
    public = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert {"small_primes", "prime_factors", "kronecker", "is_fundamental", "sigma"} <= public
    taken = public | FORMER_COPIES
    for path in sorted(Path(__file__).parent.glob("*.py")):
        copies = [
            f"{node.name} at line {node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in taken
        ]
        assert copies == [], path.name
