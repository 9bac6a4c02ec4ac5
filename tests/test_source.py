"""Checks on the package sources themselves."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "wondertoric")


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so a result guard must raise instead
    found = []
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            "%s:%d" % (os.path.basename(path), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_fans_does_not_import_fractions():
    # the cone kernels (simplex, cone coordinates) stay in integers
    path = os.path.join(SRC, "fans.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    modules = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m and m.split(".")[0] == "fractions"]
