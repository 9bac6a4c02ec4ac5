import json

import pytest

from wondertoric.errors import NotSplit, SchemaError
from wondertoric.jobs import (
    Job,
    job_building,
    job_from_dict,
    job_poset,
    load_job,
    parallel_map,
    parse_nested,
    read_seed,
)

P1_DOC = {
    "rank": 1,
    "fan": {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]},
    "layers": [{"gamma": [[1]], "phi": ["0/1"]}],
}


def test_load_job_defaults(tmp_path):
    p = tmp_path / "job.json"
    p.write_text(json.dumps(P1_DOC))
    job = load_job(str(p))
    assert job.fan.rank == 1
    assert len(job.layers) == 1
    assert job.building is None
    assert job.nested is None
    assert job.max_degree is None
    assert job.budget == 64
    assert job.jobs is None
    assert job.output is None


def test_load_job_missing_file():
    with pytest.raises(SchemaError):
        load_job("/nonexistent/job.json")


def test_load_job_bad_json(tmp_path):
    p = tmp_path / "job.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        load_job(str(p))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("rank"),
        lambda d: d.pop("fan"),
        lambda d: d.pop("layers"),
        lambda d: d.update(rank="one"),
        lambda d: d.update(rank=True),
        lambda d: d.update(rank=2),  # fan rank mismatch
        lambda d: d.update(surprise=1),
        lambda d: d.update(layers=[{"gamma": "x", "phi": []}]),
        lambda d: d.update(layers=[{"gamma": [[1]], "phi": ["x"]}]),
        lambda d: d.update(building=[0, "a"]),
        lambda d: d.update(nested={"members": [0], "extra": 1}),
        lambda d: d.update(options={"budget": -1}),
        lambda d: d.update(options={"max_degree": "big"}),
        lambda d: d.update(options={"jobs": 0}),
        lambda d: d.update(options={"nope": 1}),
        lambda d: d.update(fan={"rank": 1, "rays": [[2]], "max_cones": [[0]]}),
        # floats and bools are refused, not truncated
        lambda d: d["fan"].update(rank=1.0),
        lambda d: d["fan"].update(rank=True),
        lambda d: d["fan"].update(rays=[[1.9], [-1]]),
        lambda d: d["fan"].update(rays=[[True], [-1]]),
        lambda d: d["fan"].update(max_cones=[[0], [1.0]]),
        lambda d: d["fan"].update(max_cones=[[0], [True]]),
        lambda d: d.update(layers=[{"gamma": [[1.2]], "phi": ["0/1"]}]),
        lambda d: d.update(layers=[{"gamma": [[True]], "phi": ["0/1"]}]),
        lambda d: d.update(layers=[{"gamma": [[1]], "phi": [0.1]}]),
        lambda d: d.update(layers=[{"gamma": [[1]], "phi": [False]}]),
    ],
)
def test_schema_rejections(mutate):
    doc = json.loads(json.dumps(P1_DOC))
    mutate(doc)
    with pytest.raises(SchemaError):
        job_from_dict(doc)


def test_integer_phi_values_are_accepted():
    doc = dict(P1_DOC, layers=[{"gamma": [[1]], "phi": [0]}])
    assert job_from_dict(doc) == job_from_dict(P1_DOC)


def test_unsaturated_layer_is_semantic_not_schema():
    doc = {
        "rank": 2,
        "fan": {
            "rank": 2,
            "rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],
            "max_cones": [[0, 2], [0, 3], [1, 2], [1, 3]],
        },
        "layers": [{"gamma": [[2, 0]], "phi": ["0/1"]}],
    }
    job = job_from_dict(doc)  # shape is fine
    with pytest.raises(NotSplit):
        job_poset(job)


def test_parse_nested():
    assert parse_nested({"members": [1, 0], "rays": []}) == ((1, 0), ())
    assert parse_nested({}) == ((), ())
    with pytest.raises(SchemaError):
        parse_nested([0])
    with pytest.raises(SchemaError):
        parse_nested({"members": [0.5]})


def test_job_building_range_check():
    job = job_from_dict(dict(P1_DOC, building=[7]))
    poset = job_poset(job)
    with pytest.raises(SchemaError):
        job_building(job, poset)


def test_empty_arrangement():
    job = job_from_dict(dict(P1_DOC, layers=[]))
    poset = job_poset(job)
    assert poset.elements == ()
    assert job_building(job, poset).members == ()


def _cube(x):
    return x * x * x


def test_parallel_map_order_and_agreement():
    items = list(range(20))
    seq = parallel_map(_cube, items, jobs=1)
    par = parallel_map(_cube, items, jobs=3)
    assert seq == par == [x * x * x for x in items]


def test_read_seed(monkeypatch):
    monkeypatch.delenv("WONDER_SEED", raising=False)
    assert read_seed() == 0
    monkeypatch.setenv("WONDER_SEED", "17")
    assert read_seed() == 17
    monkeypatch.setenv("WONDER_SEED", "lots")
    with pytest.raises(SchemaError):
        read_seed()
