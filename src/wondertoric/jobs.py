"""Job documents: JSON workloads for the command line tool.

A job file carries the ambient rank, the fan, the arrangement layers, an
optional building-set selector, an optional nested set for stratum work and
an options block.  Everything else (poset closure, ordering, validation)
is derived.  Shape problems raise SchemaError; mathematical failures keep
their own exception types so the command line can tell the two apart.
"""

import json
import os
from dataclasses import dataclass

from .building import building_set
from .errors import MalformedFan, SchemaError, WonderError
from .fans import fan_from_dict
from .layers import LayerPoset, build_layer_poset, layer_from_dict

DEFAULT_BUDGET = 64

_OPTION_KEYS = {"max_degree", "budget", "jobs", "output"}
_NESTED_KEYS = {"members", "rays"}
_OPTION_LEAST = {"max_degree": 0, "budget": 0, "jobs": 1}  # least accepted value


def read_seed():
    """Search seed from the WONDER_SEED environment variable.

    Searches are deterministic; the value is only recorded in artifacts."""
    raw = os.environ.get("WONDER_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise SchemaError("WONDER_SEED must be an integer: %r" % (raw,))


@dataclass(frozen=True)
class Job:
    fan: object
    layers: tuple
    building: object  # None means every poset element, else a tuple of ids
    nested: object  # None or a (members, rays) pair of index tuples
    max_degree: object
    budget: int
    jobs: object
    output: object


def _expect(cond, msg, *args):
    if not cond:
        raise SchemaError(msg % args if args else msg)


def _check_keys(obj, what, needed, optional=()):
    """Reject a key of the object outside needed and optional, then a
    missing needed key, naming the keys."""
    extra = set(obj) - set(needed) - set(optional)
    _expect(not extra, "unknown %s keys: %s", what, sorted(extra))
    if any(k not in obj for k in needed):
        raise SchemaError("%s needs %s and %s" % (what, ", ".join(needed[:-1]), needed[-1]))


def _int_list(value, what):
    _expect(isinstance(value, list), "%s must be a list", what)
    for x in value:
        _expect(isinstance(x, int) and not isinstance(x, bool), "%s entries must be integers", what)
    return tuple(value)


def check_option(key, value):
    """Return value if it is an integer the option accepts, else raise
    SchemaError.  The command line flags of the same names use it too."""
    least = _OPTION_LEAST[key]
    _expect(isinstance(value, int) and not isinstance(value, bool) and value >= least,
            "%s must be a %s integer", key, "positive" if least else "nonnegative")
    return value


def parse_nested(obj):
    """Nested-set spec {"members": [...], "rays": [...]} to index tuples."""
    _expect(isinstance(obj, dict), "nested must be an object")
    _check_keys(obj, "nested", (), _NESTED_KEYS)
    return (
        _int_list(obj.get("members", []), "nested members"),
        _int_list(obj.get("rays", []), "nested rays"),
    )


def job_from_dict(doc):
    _expect(isinstance(doc, dict), "job document must be an object")
    _check_keys(doc, "job", ("rank", "fan", "layers"), ("building", "nested", "options"))

    rank = doc["rank"]
    _expect(isinstance(rank, int) and not isinstance(rank, bool) and rank >= 0, "rank must be a nonnegative integer")

    _expect(isinstance(doc["fan"], dict), "fan must be an object")
    _check_keys(doc["fan"], "fan", ("rank", "rays", "max_cones"))
    try:
        f = fan_from_dict(doc["fan"])
    except MalformedFan as exc:
        raise SchemaError("bad fan: %s" % exc)
    _expect(f.rank == rank, "fan rank %d does not match job rank %d", f.rank, rank)

    _expect(isinstance(doc["layers"], list), "layers must be a list")
    layers = []
    for i, ld in enumerate(doc["layers"]):
        _expect(isinstance(ld, dict), "layer %d must be an object", i)
        _check_keys(ld, "layer %d" % i, ("gamma", "phi"))
        try:
            lay = layer_from_dict(ld, rank)
        except WonderError:
            raise
        except Exception as exc:
            raise SchemaError("bad layer %d: %s" % (i, exc))
        _expect(lay.codim, "layer %d has no characters: it is the whole torus", i)
        layers.append(lay)

    building = doc.get("building", "all")
    if building == "all":
        building = None
    else:
        building = _int_list(building, "building")

    nested = doc.get("nested")
    if nested is not None:
        nested = parse_nested(nested)

    options = doc.get("options", {})
    _expect(isinstance(options, dict), "options must be an object")
    _check_keys(options, "option", (), _OPTION_KEYS)
    max_degree = options.get("max_degree")
    if max_degree is not None:
        check_option("max_degree", max_degree)
    budget = check_option("budget", options.get("budget", DEFAULT_BUDGET))
    jobs = options.get("jobs")
    if jobs is not None:
        check_option("jobs", jobs)
    output = options.get("output")
    if output is not None:
        _expect(isinstance(output, str), "output must be a path string")

    return Job(f, tuple(layers), building, nested, max_degree, budget, jobs, output)


def load_job(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError("cannot read job file: %s" % exc)
    except ValueError as exc:
        raise SchemaError("job file is not valid JSON: %s" % exc)
    return job_from_dict(doc)


def job_poset(job):
    if not job.layers:
        return LayerPoset((), ())
    return build_layer_poset(list(job.layers))


def job_building(job, poset):
    if job.building is None:
        return building_set(poset)
    for i in job.building:
        _expect(0 <= i < len(poset.elements), "building id out of range: %d", i)
    return building_set(poset, job.building)


def parallel_map(fn, items, jobs=None):
    """Order-preserving map, on worker processes when jobs > 1.

    The reduction order is the input order regardless of worker count, so
    results are deterministic.  fn must be picklable for jobs > 1."""
    items = list(items)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor  # costly; no command pools
    try:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(fn, items))
    except (OSError, PermissionError):
        # no process support in this environment; same answer, one worker
        return [fn(x) for x in items]
