"""Checks on the package sources themselves."""

import ast
import collections
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


def _parse(name):
    path = os.path.join(SRC, name)
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _imports(tree):
    """Top-level names of the imported modules, and the names imported."""
    modules = {
        alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    } | {node.module.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    return modules, names


def test_fans_does_not_import_fractions():
    # the cone kernels (simplex, cone coordinates) stay in integers
    modules, _ = _imports(_parse("fans.py"))
    assert modules and "fractions" not in modules


def test_one_echelon_engine():
    # lattice.RowEchelon computes every HNF, lattice solve and elimination
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        tree = _parse(name)
        modules, names = _imports(tree)
        defined = {
            node.name for node in ast.walk(tree) if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        }
        if name != "lattice.py":
            found += ["%s defines %s" % (name, d) for d in sorted(defined & {"RowEchelon", "hermite_normal_form"})]
            found += ["%s imports xgcd" % name] if "xgcd" in names else []
        if name == "cohomology.py" and "fractions" in modules:
            found.append("cohomology imports fractions")
    assert found == []


def test_only_layers_intersects_layers():
    # building, present and oracle read intersections off the poset's table;
    # chern lifts pairs that the poset's inclusion table chose
    banned = {"intersect_layers", "layer_inclusion"}
    for name in ("building.py", "chern.py", "present.py", "oracle.py"):
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        used = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
        assert used, name
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not banned & used, name


def test_oracle_never_touches_a_ring_or_builds_a_fan():
    # the Betti oracle reads each stage off the model's face set: no ring,
    # no lattice algebra of its own, no stage fan
    tree = _parse("oracle.py")
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert modules and not modules & {"cohomology", "lattice", "chern"}
    assert not _calls(tree) & {"Fan", "fan", "induced_fan"}


def test_no_indented_json_dumps_in_the_package():
    # json.dumps(indent=...) runs the pure-Python encoder; cli.dumps renders
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("dumps", "dump") and any(k.arg == "indent" for k in node.keywords):
                found.append("%s:%d" % (os.path.basename(path), node.lineno))
    assert found == []


def test_one_coefficient_order_and_no_bound_knob():
    # the equal-sign searches share fans.COEFF_ORDER; nothing widens it
    params, assigned = [], []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        name = os.path.basename(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and node.arg == "bound":
                params.append("%s:%d" % (name, node.lineno))
            if isinstance(node, ast.Name) and node.id == "COEFF_ORDER" and isinstance(node.ctx, ast.Store):
                assigned.append(name)
    assert params == []
    assert assigned == ["fans.py"]


def _calls(tree):
    """Names of the functions and classes the module calls."""
    return {
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }


def test_each_precondition_check_has_one_home():
    # a BuildingSet checks itself when made, a Model checks the fan, a
    # LayerPoset checks the layer lattices; the validate command reports
    # smoothness and completeness, the kernels below a Model take them
    homes = {
        "validate_building": ("building.py",),
        "validate_well_connected": ("building.py",),
        "BuildingSet": ("building.py",),
        "check_model_preconditions": ("present.py",),
        "is_split_summand": ("layers.py",),
        "validate_smooth": ("fans.py", "cli.py"),
        "validate_complete": ("fans.py", "cli.py"),
    }
    found, params = [], []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        tree = _parse(name)
        found += ["%s calls %s" % (name, c) for c in sorted(_calls(tree) & set(homes)) if name not in homes[c]]
        params += [name for node in ast.walk(tree) if isinstance(node, ast.arg) and node.arg == "building_checked"]
    assert found == []
    assert params == []


def test_no_unused_imports_in_the_package():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        tree = _parse(name)
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += ["%s:%d %s" % (name, line, b) for b, line in sorted(bound.items()) if b not in used]
    assert found == []


def test_every_error_class_is_raised_in_the_package():
    # an error type that nothing raises documents a check that is gone
    classes = [node.name for node in _parse("errors.py").body if isinstance(node, ast.ClassDef)]
    raised = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        for node in ast.walk(_parse(os.path.basename(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert "WonderError" in classes
    assert [c for c in classes if c != "WonderError" and c not in raised] == []


def test_ring_and_model_memos_hang_off_their_objects():
    # a memo in the ring, lift or assembly code lives and dies with its
    # GradedRing or Model: no process-wide cache and no module-level dict
    memo_types = {"dict", "defaultdict", "OrderedDict", "Counter", "WeakKeyDictionary", "WeakValueDictionary"}
    found = []
    for name in ("cohomology.py", "chern.py", "present.py"):
        tree = _parse(name)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
        found += ["%s uses %s" % (name, n) for n in sorted(names & {"lru_cache", "cache"})]
        for node in tree.body:
            value = getattr(node, "value", None) if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            called = getattr(value, "func", None)
            if isinstance(value, (ast.Dict, ast.DictComp)) or getattr(called, "id", getattr(called, "attr", None)) in memo_types:
                found.append("%s:%d module-level dict" % (name, node.lineno))
    assert found == []


# Every process-wide memo in the package, with its maxsize: such a cache
# holds memory for the life of the process, so a new one, or a larger
# bound, must be added here on purpose.
PROCESS_CACHES = {
    "lattice.py:_solve_in_lattice": "CACHE_SIZE",
    "lattice.py:saturate": "CACHE_SIZE",
    "lattice.py:_torsion_frame": "CACHE_SIZE",
    "fans.py:find_equal_sign_basis": "FAN_CACHE_SIZE",
    "fans.py:cone_face_compat": "FAN_CACHE_SIZE",
    "cli.py:_kept_poset": "1",
    "cli.py:_kept_building": "1",
    "cli.py:_kept_model": "1",
    "cli.py:_parser": "1",
}


def test_every_process_wide_cache_is_pinned_with_its_size():
    found, uses = {}, 0
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        tree = _parse(name)
        uses += sum(
            (node.attr if isinstance(node, ast.Attribute) else node.id) in ("lru_cache", "cache")
            for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Name))
        )
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                func = call.func if call else dec
                kind = getattr(func, "attr", getattr(func, "id", None))
                if kind == "cache":
                    found["%s:%s" % (name, node.name)] = "None"
                elif kind == "lru_cache":
                    args = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args if call else []
                    found["%s:%s" % (name, node.name)] = ast.unparse(args[0]) if args else "128"
    assert found == PROCESS_CACHES
    assert uses == len(found)  # no cache made other than as a decorator
    from wondertoric.fans import FAN_CACHE_SIZE
    from wondertoric.lattice import CACHE_SIZE

    assert (CACHE_SIZE, FAN_CACHE_SIZE) == (1024, 32)


BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _reads(tree):
    """How often the tree reads each name, bare or as an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _bench_names():
    """What bench/*.py takes from the package: the names it imports from
    wondertoric and every attribute it reads, since methods such as
    GradedRing.slice_table are reached through objects, not imported."""
    names = set()
    paths = sorted(glob.glob(os.path.join(BENCH, "*.py")))
    assert paths
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wondertoric":
                names |= {a.name for a in node.names}
        names |= set(_reads(tree))
    return names


def test_every_public_definition_runs_outside_the_tests():
    # a public function, class or method is read somewhere in the package
    # (by name, outside its own body), is the command line entry point, or
    # is taken by the benchmark; references only the tests use live in
    # tests/_oracles.py
    trees = {os.path.basename(p): _parse(os.path.basename(p)) for p in sorted(glob.glob(os.path.join(SRC, "*.py")))}
    reads = sum(map(_reads, trees.values()), collections.Counter())
    bench = _bench_names()
    assert {"parallel_map", "slice_table", "_nested_verdict"} <= bench
    found = []
    for name, tree in trees.items():
        defs = [(node, node.name) for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [
            (node, "%s.%s" % (cls.name, node.name))
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
        ]
        for node, label in defs:
            if node.name.startswith("_") or (name, label) == ("cli.py", "main") or node.name in bench:
                continue
            if reads[node.name] == _reads(node)[node.name]:
                found.append("%s %s" % (name, label))
    assert found == []
