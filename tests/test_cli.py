import argparse
import collections
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wondertoric
from wondertoric import building, cli, fans, jobs, oracle, present
from wondertoric.cli import main
from wondertoric.fans import fan_from_dict, fan_to_dict

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden_path(name):
    return os.path.join(GOLDEN, name)


def run_to_bytes(argv, tmp_path, name="out"):
    out = str(tmp_path / name)
    code = main(argv + ["--output", out])
    with open(out, "rb") as fh:
        return code, fh.read()


# one row per frozen artifact: stem, command, extra flags, suffix, exit code
MATRIX = [
    ("p1_one_point", "check", [], "check.json", 0),
    ("p1_one_point", "present", ["--format", "text"], "present.txt", 0),
    ("p1_two_points", "check", [], "check.json", 0),
    ("p1_three_points", "check", [], "check.json", 0),
    ("p1xp1_coordinate", "check", [], "check.json", 0),
    ("p1xp1_coordinate", "present", [], "present.json", 0),
    ("p1xp1_coordinate", "poset", [], "poset.json", 0),
    ("p1xp1_coordinate", "nested", [], "nested.json", 0),
    ("p1xp1_stratum", "stratum", [], "stratum.json", 0),
    ("p1xp1_stratum", "stratum", ["--format", "text"], "stratum.txt", 0),
    ("skew_good", "check", [], "check.json", 0),
    ("skew_good", "betti", [], "betti.json", 0),
    ("p2_diagonal", "validate", [], "validate.json", 1),
    ("p2_diagonal", "goodfan", ["--search"], "goodfan.json", 0),
    ("cube_planes", "check", [], "check.json", 0),
    ("cube_planes", "present", [], "present.json", 0),
    # the strata_sweep model: 2+2 coordinate curves, 8 members
    ("p1xp1_curves", "stratum", ["--nested", '{"members": [], "rays": []}'],
     "stratum_none.json", 0),
    ("p1xp1_curves", "stratum", ["--nested", '{"members": [2], "rays": []}'],
     "stratum_curve.json", 0),
    # a point below a curve, so the point's F groups see a nested member above
    ("p1xp1_curves", "stratum", ["--nested", '{"members": [0, 2], "rays": []}'],
     "stratum_point_curve.json", 0),
    ("p1xp1_curves", "stratum", ["--nested", '{"members": [2], "rays": [2]}'],
     "stratum_curve_ray.json", 0),
    ("p1xp1_curves", "stratum", ["--nested", '{"members": [], "rays": [0, 2]}'],
     "stratum_two_rays.json", 0),
    # rank 4: (P1)^4 and its coordinate hyperplanes, 15 members
    ("rank4/p1x4_hyperplanes", "check", [], "check.json", 0),
    # root systems on their Weyl-chamber fans (roots/make_jobs.py): slices
    # with non-unit pivots; B3's meets split into components
    ("roots/a3", "check", [], "check.json", 0),
    ("roots/a3_half", "check", [], "check.json", 0),
    ("roots/b3", "check", [], "check.json", 0),
]


@pytest.mark.parametrize("stem,command,extra,suffix,want", MATRIX)
def test_golden(stem, command, extra, suffix, want, tmp_path):
    argv = [command, "--input", golden_path(stem + ".job.json")] + extra
    code, got = run_to_bytes(argv, tmp_path)
    assert code == want
    with open(golden_path("%s.%s" % (stem, suffix)), "rb") as fh:
        assert got == fh.read()


def _root_jobs():
    path = os.path.join(GOLDEN, "roots", "make_jobs.py")
    spec = importlib.util.spec_from_file_location("make_jobs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ROOT_JOBS = _root_jobs()


@pytest.mark.parametrize("stem", sorted(ROOT_JOBS.JOBS))
def test_root_jobs_are_what_make_jobs_writes(stem):
    with open(golden_path("roots/%s.job.json" % stem)) as fh:
        assert json.load(fh) == ROOT_JOBS.JOBS[stem]


@pytest.mark.parametrize(
    "stem,name,members,rays",
    [(stem, *case) for stem, cases in sorted(ROOT_JOBS.STRATA.items()) for case in cases],
)
def test_root_strata_summaries(stem, name, members, rays):
    with open(golden_path("roots/%s.stratum_%s.json" % (stem, name))) as fh:
        assert ROOT_JOBS.stratum_summary(stem, members, rays) == fh.read()


def test_reruns_are_byte_identical(tmp_path):
    argv = ["check", "--input", golden_path("p1xp1_coordinate.job.json")]
    _, first = run_to_bytes(argv, tmp_path, "a")
    _, second = run_to_bytes(argv, tmp_path, "b")
    assert first == second


def test_worker_count_does_not_change_output(tmp_path):
    argv = ["nested", "--input", golden_path("p1xp1_coordinate.job.json")]
    _, one = run_to_bytes(argv + ["--jobs", "1"], tmp_path, "a")
    _, four = run_to_bytes(argv + ["--jobs", "4"], tmp_path, "b")
    assert one == four
    with open(golden_path("p1xp1_coordinate.nested.json"), "rb") as fh:
        assert one == fh.read()


def test_module_entry_point_matches_golden():
    src = os.path.dirname(os.path.dirname(wondertoric.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "wondertoric.cli", "check", "--input",
         golden_path("p1xp1_coordinate.job.json")],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])),
        capture_output=True,
    )
    assert proc.returncode == 0
    with open(golden_path("p1xp1_coordinate.check.json"), "rb") as fh:
        assert proc.stdout == fh.read()


def test_exit_codes():
    # schema problems
    assert main(["present", "--input", "/nonexistent.json"]) == 2
    assert main(["present"]) == 2  # missing required flag
    # mathematical failure: the plain fan is not good for the skew curves
    assert main(["betti", "--input", golden_path("skew_plain.job.json")]) == 1
    assert main(["validate", "--input", golden_path("p2_diagonal.job.json")]) == 1
    # budget exhaustion
    assert main([
        "goodfan", "--search", "--budget", "0",
        "--input", golden_path("p2_diagonal.job.json"),
    ]) == 3


def test_goodfan_search_on_skew(tmp_path):
    out = str(tmp_path / "fixed.json")
    code = main([
        "goodfan", "--search",
        "--input", golden_path("skew_plain.job.json"),
        "--output", out,
    ])
    assert code == 0
    doc = json.load(open(out))
    assert doc["steps"] == 4
    assert len(doc["fan"]["rays"]) == 8
    assert doc["seed"] == 0


@pytest.mark.parametrize("rays, cones", [
    ([[1, 0], [0, 1], [-1, 0]], [[0, 1], [1, 2]]),  # a half plane: two lone walls
    ([[1, 0], [1, 2], [-1, 0], [0, -1], [-1, -2]],
     [[0, 1], [1, 2], [2, 4], [3, 4], [0, 3]]),  # complete, three singular cones
    ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [2]]),  # a ray as a max cone
])
def test_goodfan_search_refuses_a_fan_that_is_not_smooth_and_complete(rays, cones, tmp_path, capsys):
    # the search repairs equal signs only; it used to exit 0 with a fan that
    # goodfan then rejected
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"rank": 2, "fan": {"rank": 2, "rays": rays, "max_cones": cones},
                               "layers": [{"gamma": [[1, 1]], "phi": ["1/3"]}]}))
    code, _, _, doc = run_captured(["validate", "--input", str(job)], tmp_path, capsys)
    report = json.loads(doc)["fan"]
    failures = report["smooth"]["failures"] + report["complete"]["failures"]
    assert code == 1 and failures
    code, out, err, doc = run_captured(["goodfan", "--search", "--input", str(job)], tmp_path, capsys)
    assert (code, out, doc) == (1, "", None)
    assert err == "validation failure: the search needs a smooth complete fan: %s\n" % json.dumps(failures)


def test_goodfan_records_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("WONDER_SEED", "7")
    out = str(tmp_path / "fixed.json")
    code = main([
        "goodfan", "--search",
        "--input", golden_path("p2_diagonal.job.json"),
        "--output", out,
    ])
    assert code == 0
    assert json.load(open(out))["seed"] == 7


def test_stratum_flag_matches_job_key(tmp_path):
    _, via_key = run_to_bytes(
        ["stratum", "--input", golden_path("p1xp1_stratum.job.json")],
        tmp_path, "a",
    )
    _, via_flag = run_to_bytes(
        ["stratum", "--input", golden_path("p1xp1_coordinate.job.json"),
         "--nested", '{"members": [0], "rays": []}'],
        tmp_path, "b",
    )
    assert via_key == via_flag


def test_stratum_rejections():
    base = ["stratum", "--input", golden_path("p1xp1_coordinate.job.json")]
    # no nested set anywhere
    assert main(base) == 2
    # malformed inline spec
    assert main(base + ["--nested", "{bad"]) == 2
    # position out of range
    assert main(base + ["--nested", '{"members": [9], "rays": []}']) == 2
    # well-formed but not nested: the two curves form a forbidden antichain
    assert main(base + ["--nested", '{"members": [1, 2], "rays": []}']) == 1


def test_max_degree_flag(tmp_path):
    out = str(tmp_path / "doc.json")
    code = main([
        "present", "--input", golden_path("p1xp1_coordinate.job.json"),
        "--max-degree", "5", "--output", out,
    ])
    assert code == 0
    assert json.load(open(out))["hilbert"] == [1, 3, 1, 0, 0, 0]


def test_check_refuses_a_max_degree_below_the_fan_rank(tmp_path, capsys):
    # the ranks would stop below the top degree, and verify would read the
    # degrees never computed as 0 and blame a correct ring
    job = golden_path("cube_planes.job.json")
    assert main(["check", "--input", job, "--max-degree", "2"]) == 2
    via_flag = capsys.readouterr()
    doc = json.load(open(job))
    doc["options"] = {"max_degree": 2}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--input", str(path)]) == 2
    via_job = capsys.readouterr()
    assert via_flag.out == via_job.out == ""
    assert via_flag.err == via_job.err == "schema error: check needs max_degree >= 3\n"
    # the fan rank itself verifies, and present takes any max_degree
    out = str(tmp_path / "out")
    assert main(["check", "--input", job, "--max-degree", "3", "--output", out]) == 0
    assert json.load(open(out))["hilbert"] == [1, 7, 7, 1]
    assert main(["present", "--input", str(path), "--output", out]) == 0


@pytest.mark.parametrize("flag, key, value", [
    ("--max-degree", "max_degree", -1),
    ("--budget", "budget", -1),
    ("--jobs", "jobs", 0),
])
def test_flags_are_checked_like_job_options(flag, key, value, tmp_path, capsys):
    job = golden_path("skew_good.job.json")  # already good: no subdivision
    argv = ["goodfan", "--search", "--input", job]
    assert main(argv + [flag, str(value)]) == 2
    via_flag = capsys.readouterr()
    doc = json.load(open(job))
    doc["options"] = {key: value}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main(["goodfan", "--search", "--input", str(path)]) == 2
    via_job = capsys.readouterr()
    assert via_flag.out == via_job.out == ""
    assert via_flag.err == via_job.err == "schema error: %s must be a %s integer\n" % (
        key, "positive" if key == "jobs" else "nonnegative")
    # the least accepted value still runs
    assert main(argv + [flag, str(value + 1), "--output", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command, fan_doc, layer_doc", [
    ("check", {"rank": 1, "rays": [[1.9], [-1]], "max_cones": [[0], [True]]},
     {"gamma": [[1.2]], "phi": ["0/1"]}),
    ("poset", {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]},
     {"gamma": [[1]], "phi": [0.1]}),
])
def test_floats_and_bools_exit_2(command, fan_doc, layer_doc, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"rank": 1, "fan": fan_doc, "layers": [layer_doc]}))
    assert main([command, "--input", str(path), "--format", "text"]) == 2
    std = capsys.readouterr()
    assert std.out == ""
    assert std.err.startswith("schema error: ")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_a_layer_with_no_characters_exits_2(command, tmp_path, capsys):
    # the whole torus is no layer of an arrangement: refused as input, not
    # blamed on the program later
    doc = json.load(open(golden_path("p1xp1_coordinate.job.json")))
    doc["layers"].append({"gamma": [], "phi": []})
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path)]) == 2
    std = capsys.readouterr()
    assert std.out == ""
    assert std.err == "schema error: layer 2 has no characters: it is the whole torus\n"


SQUARE = {"rank": 2, "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]], "max_cones": [[0, 2], [0, 3], [1, 2], [1, 3]]}


@pytest.mark.parametrize("fan_doc, layer_doc, message", [
    (SQUARE, {"gamma": [[1, 0]], "phi": ["0"], "x": 1}, "unknown layer 0 keys: ['x']"),
    (dict(SQUARE, extra=1), {"gamma": [[1, 0]], "phi": ["0"]}, "unknown fan keys: ['extra']"),
    (SQUARE, {"gamma": [[1, 0]]}, "layer 0 needs gamma and phi"),
    ({"rank": 2, "rays": SQUARE["rays"]}, {"gamma": [[1, 0]], "phi": ["0"]}, "fan needs rank, rays and max_cones"),
])
def test_unknown_and_missing_fan_and_layer_keys_exit_2(fan_doc, layer_doc, message, tmp_path, capsys):
    # unknown keys are rejected in the fan and in a layer as at the top level
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"rank": 2, "fan": fan_doc, "layers": [layer_doc]}))
    assert main(["check", "--input", str(path), "--max-degree", "2"]) == 2
    std = capsys.readouterr()
    assert std.out == ""
    assert std.err == "schema error: %s\n" % message


@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_output_is_a_schema_error(where, tmp_path, capsys):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    code = main(["betti", "--input", golden_path("skew_good.job.json"), "--output", str(out)])
    assert code == 2
    std = capsys.readouterr()
    assert std.out == ""
    assert std.err.startswith("schema error: cannot write output: ")
    assert str(out) in std.err
    assert not (tmp_path / "missing").exists()


def test_fan_json_round_trip_is_bit_exact():
    for stem in ("p1_one_point", "p1xp1_coordinate", "skew_good", "p2_diagonal"):
        doc = json.load(open(golden_path(stem + ".job.json")))["fan"]
        f = fan_from_dict(doc)
        again = fan_to_dict(f)
        assert again == doc
        assert json.dumps(again, sort_keys=True) == json.dumps(doc, sort_keys=True)


def test_empty_arrangement_lists_base_ring_alone(tmp_path):
    job = {
        "rank": 1,
        "fan": {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]},
        "layers": [],
    }
    p = tmp_path / "empty.json"
    p.write_text(json.dumps(job))
    code, got = run_to_bytes(
        ["present", "--input", str(p), "--format", "text"], tmp_path
    )
    assert code == 0
    text = got.decode()
    assert "t variables: none" in text
    assert "group tc:" not in text and "group F:" not in text
    assert "hilbert: (1,1,0)" in text


# the model preconditions and the validators they are made of
VALIDATORS = (
    "check_model_preconditions",
    "validate_building",
    "validate_well_connected",
    "validate_good",
)


@pytest.mark.parametrize(
    "command,stem,runs_good",
    [
        ("check", "p1xp1_coordinate", True),
        ("check", "skew_good", True),
        ("betti", "skew_good", True),
        ("present", "p1xp1_coordinate", True),
        ("stratum", "p1xp1_stratum", True),
        ("nested", "p1xp1_coordinate", False),
    ],
)
def test_each_command_validates_the_model_once(
    command, stem, runs_good, monkeypatch, tmp_path
):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for mod in (building, cli, fans, jobs, oracle, present):
        for name in VALIDATORS:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    argv = [command, "--input", golden_path(stem + ".job.json")]
    clear_caches()  # cold: no model kept from an earlier request
    assert run_to_bytes(argv, tmp_path)[0] == 0
    assert calls["validate_building"] == calls["validate_well_connected"] == 1
    assert calls["check_model_preconditions"] == calls["validate_good"] == int(runs_good)
    # warm: an identical request reuses the kept model and validates nothing
    calls.clear()
    assert run_to_bytes(argv, tmp_path)[0] == 0
    assert sum(calls.values()) == 0


def package_caches():
    """Every memoised function of the package, once each."""
    found = {}
    for info in pkgutil.iter_modules(wondertoric.__path__):
        mod = importlib.import_module("wondertoric." + info.name)
        for fn in vars(mod).values():
            if callable(fn) and hasattr(fn, "cache_info"):
                found[id(fn)] = fn
    return list(found.values())


def clear_caches():
    for fn in package_caches():
        fn.cache_clear()


def run_captured(argv, tmp_path, capsys):
    """(exit code, stdout, stderr, output file bytes or None) of one request."""
    out = tmp_path / "out"
    if out.exists():
        out.unlink()
    code = main(argv + ["--output", str(out)])
    std = capsys.readouterr()
    return code, std.out, std.err, out.read_bytes() if out.exists() else None


def signed_permuted_job(stem, tmp_path):
    """The golden job with coordinates moved by (x, y) -> (-y, x)."""
    move = lambda v: [-v[1], v[0]]
    doc = json.load(open(golden_path(stem + ".job.json")))
    doc["fan"]["rays"] = [move(r) for r in doc["fan"]["rays"]]
    for lay in doc["layers"]:
        lay["gamma"] = [move(g) for g in lay["gamma"]]
    path = tmp_path / (stem + ".moved.json")
    path.write_text(json.dumps(doc))
    return str(path)


COLD_WARM = [
    ("check", "p1xp1_coordinate", []),
    ("betti", "skew_good", []),
    ("stratum", "p1xp1_stratum", []),
    ("stratum", "p1xp1_coordinate", ["--nested", '{"members": [1], "rays": [0]}']),
    ("stratum", "p1xp1_coordinate", ["--nested", '{"members": [], "rays": [1, 3]}']),
    ("validate", "p2_diagonal", ["--format", "text"]),
    ("goodfan", "p2_diagonal", ["--search"]),
    ("goodfan", "skew_plain", ["--search"]),
]


def test_cold_and_warm_caches_give_identical_runs(tmp_path, capsys):
    caches = package_caches()
    assert {fn.__name__ for fn in caches} >= {
        "_solve_in_lattice", "saturate", "_torsion_frame",
        "find_equal_sign_basis", "cone_face_compat",
    }

    run = lambda argv: run_captured(argv, tmp_path, capsys)

    def argv_of(command, stem, extra):
        return [command, "--input", golden_path(stem + ".job.json")] + extra

    cold = []
    for spec in COLD_WARM:
        clear_caches()
        cold.append(run(argv_of(*spec)))
    # other requests in between, two of them on signed-permuted coordinates
    for stem in ("p1_one_point", "p1_three_points", "skew_good"):
        run(["check", "--input", golden_path(stem + ".job.json")])
    run(["betti", "--input", signed_permuted_job("skew_good", tmp_path)])
    run(["goodfan", "--search", "--input", signed_permuted_job("skew_plain", tmp_path)])
    for _ in range(2):
        assert [run(argv_of(*spec)) for spec in COLD_WARM] == cold
    for fn in caches:
        info = fn.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, fn.__name__


def test_errors_repeat_under_a_warm_context(tmp_path, capsys):
    # the plain fan is not good for the skew curves; a member out of range
    # is a schema error, found before the fan is checked
    job = golden_path("skew_plain.job.json")
    check = ["check", "--input", job]
    stratum = ["stratum", "--input", job, "--nested", '{"members": [9], "rays": []}']
    cold = []
    for argv in (stratum, check):
        clear_caches()
        cold.append(run_captured(argv, tmp_path, capsys))
    assert [c[0] for c in cold] == [2, 1]
    assert "out of range" in cold[0][2] and "not good" in cold[1][2]
    warm = [run_captured(argv, tmp_path, capsys) for argv in (stratum, check) * 3]
    assert warm == cold * 3


def test_every_stratum_of_a_model_warm_equals_cold(tmp_path, capsys):
    with open(golden_path("p1xp1_coordinate.nested.json")) as fh:
        sets = json.load(fh)["nested_plus"]
    assert len(sets) == 18
    argvs = [
        ["stratum", "--input", golden_path("p1xp1_coordinate.job.json"), "--nested", json.dumps(s)]
        for s in sets
    ]
    cold = []
    for argv in argvs:
        clear_caches()
        cold.append(run_captured(argv, tmp_path, capsys))
    assert all(c[0] == 0 and c[3] for c in cold)
    assert [run_captured(argv, tmp_path, capsys) for argv in argvs] == cold


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.text()
    | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\u2603\U0001f600'),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.integers())
    | st.dictionaries(st.text(), inner)
    | st.dictionaries(st.integers(), inner),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(x=json_values)
def test_dumps_equals_json_dumps(x):
    assert cli.dumps(x) == json.dumps(x, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(GOLDEN) if n.endswith(".json")))
def test_dumps_equals_json_dumps_on_goldens(name):
    with open(golden_path(name)) as fh:
        doc = json.load(fh)
    assert cli.dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_parser_is_built_once_across_calls(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        job = golden_path("p1_one_point.job.json")
        for command in ("betti", "check", "poset", "betti"):
            assert main([command, "--input", job]) == 0
        assert main(["betti", "--bogus"]) == 2
        assert built.count("wondertoric") == 1
    finally:
        cli._parser.cache_clear()


CALLS_SCRIPT = """
import contextlib, io, json, sys
from wondertoric.cli import main

out = []
for argv in json.loads(sys.argv[1]):
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        code = main(argv)
    out.append([code, so.getvalue(), se.getvalue()])
print(json.dumps(out))
"""


def run_python(*args):
    src = os.path.dirname(os.path.dirname(wondertoric.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable] + list(args),
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bad_flag_then_good_call_match_separate_runs():
    bad = ["check", "--input", golden_path("p1_one_point.job.json"), "--bogus"]
    good = ["check", "--input", golden_path("p1_one_point.job.json")]

    def calls(*argvs):
        return json.loads(run_python("-c", CALLS_SCRIPT, json.dumps(argvs)))

    together = calls(bad, good)
    assert together == calls(bad) + calls(good)
    assert [code for code, _, _ in together] == [2, 0]
    assert "--bogus" in together[0][2]


def test_importing_the_cli_loads_no_process_pool():
    script = "import sys, wondertoric.cli; print('concurrent.futures' in sys.modules)"
    assert run_python("-c", script).strip() == "False"


def test_a_repair_and_its_betti_build_one_poset(tmp_path, capsys, monkeypatch):
    built = []
    build = jobs.build_layer_poset
    monkeypatch.setattr(jobs, "build_layer_poset", lambda arr: built.append(arr) or build(arr))
    clear_caches()
    plain = golden_path("skew_plain.job.json")
    code, _, _, fan_doc = run_captured(["goodfan", "--search", "--input", plain], tmp_path, capsys)
    assert code == 0 and len(built) == 1
    with open(plain) as fh:
        doc = json.load(fh)
    repaired = tmp_path / "repaired.json"
    repaired.write_text(json.dumps(dict(doc, fan=json.loads(fan_doc)["fan"])))
    code, _, _, betti = run_captured(["betti", "--input", str(repaired)], tmp_path, capsys)
    # the same layers (skew_good's): the betti reuses the poset its goodfan built
    assert code == 0 and len(built) == 1
    with open(golden_path("skew_good.betti.json"), "rb") as fh:
        assert betti == fh.read()
    # other layers build their own poset
    assert run_captured(["betti", "--input", golden_path("p1xp1_coordinate.job.json")], tmp_path, capsys)[0] == 0
    assert len(built) == 2
    # an unsaturated layer exits 1 every time, and its failure is not kept
    split = tmp_path / "split.json"
    split.write_text(json.dumps(dict(doc, layers=[{"gamma": [[2, 0]], "phi": ["0/1"]}])))
    for _ in range(2):
        code, _, err, _ = run_captured(["goodfan", "--search", "--input", str(split)], tmp_path, capsys)
        assert code == 1 and "not saturated" in err
    assert len(built) == 4
    # and the poset kept before it is still kept
    assert run_captured(["betti", "--input", golden_path("p1xp1_coordinate.job.json")], tmp_path, capsys)[0] == 0
    assert len(built) == 4
