"""The center, fold and verify paths load numpy and no scipy: scipy is needed
only by the table weight and the oracle's antiderivative_check."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypcenter"
GOLDEN = ROOT / "tests" / "golden"

RUN_JOBS = """
import json, sys
from hypcenter import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def module_level_imports(tree):
    """Import nodes that run when the module is imported: everything outside
    function bodies."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_no_module_level_scipy_import():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in module_level_imports(ast.parse(path.read_text())):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            names += [a.name for a in node.names]
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, names)


def test_center_fold_verify_load_no_scipy(tmp_path):
    out = str(tmp_path / "report.json")
    sphere = str(GOLDEN / "center_sphere_2d.json")
    jobs = [
        ["center", "-i", sphere, "-o", out],
        ["center", "-i", sphere, "-o", out, "--multistart", "4"],
        ["fold", "-i", str(GOLDEN / "fold_2d.json"), "-o", out],
        ["verify", "--seed", "0", "-o", out],
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_JOBS, json.dumps(jobs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0, 0], "scipy": []}
