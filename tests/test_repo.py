"""Checks of the repository's own code: its imports and the benchmark harness."""

import ast
import json
import os
import subprocess
import sys

import netreduce
from conftest import PACKAGE_DIR, ROOT, loaded_local_modules

SRC = os.path.dirname(os.path.dirname(netreduce.__file__))


def _unused_imports(path):
    """(line, name) of each name that the module at ``path`` imports and never reads.

    ``from __future__`` imports and import statements marked ``# noqa: F401``
    are skipped.
    """
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    # __init__.py re-exports what it imports
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in ("src/netreduce", "tests", "tools")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(path)
    ]
    assert found == []


def test_loaded_local_modules_are_the_package():
    # hypothesis mixes the literals of every loaded module outside the tests,
    # the standard library and site-packages into its draws, so that set must
    # not depend on which tests ran before (see conftest.py, which checks it
    # again at the end of the session): the whole package, and nothing from
    # tools/ or perfbench/
    assert loaded_local_modules() == set(PACKAGE_DIR.glob("*.py"))


def test_bench_harness_smoke():
    # bench, and perfbench/workloads.py that it loads, are imported in a child
    # only, so that the set of loaded local modules stays the package in this
    # process (see conftest.py). The child starts `tools/bench.py --child
    # loops=80` through bench._child, under bench.child_env, as compare does
    child = (
        "import json, sys, bench\n"
        "from netreduce.config import config_from_dict\n"
        "for _, doc, _, _ in bench.end_to_end_runs():\n"
        "    config_from_dict(doc)\n"
        "res = bench._child(sys.argv[1], 'loops=80')\n"
        "assert set(res['thread_env']) == set(bench.THREAD_VARS)\n"
        "print(json.dumps(res))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, str(ROOT / "tools")]))
    out = subprocess.run(
        [sys.executable, "-c", child, SRC], env=env, cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout
    res = json.loads(out.splitlines()[-1])
    assert {"close_loop/n=80", "realize_reduced/n=80"} <= set(res["times"])
    assert res["peak_rss_mb"]["close_loop/n=80"] > 0
