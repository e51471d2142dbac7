"""Every relative ``pytest.approx`` gate in the tests is relative.

``pytest.approx(x, rel=r)`` keeps its default ``abs=1e-12``: wherever |x| < 1e-12 / r it gates at 1e-12
absolute, and it passes any value of a tiny quantity (twice an eigenvalue of 1.6e-45 passed a rel=1e-13
gate).  A call that sets ``rel=`` also sets ``abs=``: ``abs=0.0`` for a relative gate, or the floor it means.
"""

import ast
from pathlib import Path


def test_relative_approx_sets_abs():
    loose = []
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "approx":
                keywords = {keyword.arg for keyword in node.keywords}
                if "rel" in keywords and "abs" not in keywords:
                    loose.append(f"{path.name}:{node.lineno}")
    assert not loose, f"pytest.approx(..., rel=...) without abs= at {', '.join(loose)}"
