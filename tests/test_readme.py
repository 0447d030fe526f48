"""The README's library quickstart runs and does what its comments claim."""

import ast
import math
import re
from pathlib import Path

from diagmap import entanglement_entropy, min_face_entropy

README = Path(__file__).resolve().parents[1] / "README.md"


def _run_quickstart():
    """Run the README's python block statement by statement, as a REPL
    would: returns its namespace and the value of each expression
    statement, keyed by its source text."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    namespace = {}
    shown = {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            shown[source] = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, shown


def test_readme_quickstart_claims():
    namespace, shown = _run_quickstart()
    assert shown["entanglement_entropy(-0.5)"] == math.log(2.0)
    assert len(namespace["dec"]) == 6
    assert abs(shown["dec.average_output_entropy()"] - entanglement_entropy(-0.45)) <= 1e-15  # reads 1.1e-16
    assert shown["np.allclose(dec.mixture(), symmetric_state(-0.45))"]
    assert f"{shown['min_face_entropy(7)']:.9f}" == "0.666081957"  # the README rounds to 9 digits
    # reads 2.2e-16, the README says "within 2e-15"
    assert abs(shown["brute_force_min_face(7)[0]"] - min_face_entropy(7)) <= 2e-15
    assert abs(namespace["res"].value - entanglement_entropy(0.3)) <= 3e-16  # reads 0
