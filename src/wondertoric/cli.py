"""Command line tool: validation, poset, nested-set, presentation, stratum
and verification workflows over JSON job files.

Exit codes: 0 everything passed, 1 a mathematical validation failed, 2 the
input was malformed (job schema, flags, an unwritable output), 3 the
subdivision search ran out of budget.  Output is byte-identical across runs
for identical input; the WONDER_SEED environment variable is recorded in
search artifacts.

One process may serve many requests through main().  It keeps the last
model it validated (building set and the Model with its base ring and
relation groups), keyed by the job's fan, layers and building selector, and
the last layer poset, keyed by the layers alone, so requests on one model (the
strata of a sweep, the `betti` after a `goodfan --search`) build it once.  JSON
documents are rendered by dumps(), which gives the bytes of
json.dumps(indent=2, sort_keys=True) without its pure-Python encoder.
"""

import argparse
import collections
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .building import is_nested, is_nested_plus, nested_plus_sets
from .errors import BudgetExhausted, SchemaError, WonderError
from .fans import (
    fan_to_dict,
    first_equal_sign_violation,
    search_good_fan,
    validate_complete,
    validate_good,
    validate_smooth,
)
from .jobs import check_option, job_building, job_poset, load_job, parse_nested, read_seed
from .layers import format_qz, layer_to_dict
from .oracle import betti_of, strip_zeros, verify
from .present import (
    Model,
    hilbert_function,
    model_ideal,
    nested_set,
    presentation_to_dict,
    stratum_ideal,
)

COMMANDS = (
    "validate",
    "poset",
    "nested",
    "present",
    "stratum",
    "betti",
    "check",
    "goodfan",
)


# ---------------------------------------------------------------------------
# rendering


def _jsonable(x):
    if isinstance(x, Fraction):
        return format_qz(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(_jsonable(v) for v in x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def dumps(x):
    """json.dumps(x, indent=2, sort_keys=True), built with str.join."""
    return _dumps(x, "\n")


def _dumps(x, nl):
    # nl: a newline and the indent of the line that x ends on
    if type(x) is int:
        return str(x)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    inner = nl + "  "
    if isinstance(x, dict) and x:
        # json writes an int, float, bool or None key as its dumps, quoted
        items = (
            "%s: %s" % (encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k)),
                        _dumps(v, inner))
            for k, v in sorted(x.items())
        )
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(x, (list, tuple)) and x:
        items = (_dumps(v, inner) for v in x)
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    return json.dumps(x)  # None, bools, floats, empty containers


def _vec(v):
    return "(%s)" % ",".join(str(x) for x in v)


def ray_name(ray):
    return "c(%s)" % ",".join("%+d" % x for x in ray)


def t_name(pos):
    # text output is 1-based; JSON keeps the 0-based t:<position> names
    return "t%d" % (pos + 1)


def _mono_text(exps, nc, rays):
    parts = []
    for i in range(nc, len(exps)):
        if exps[i]:
            parts.append(t_name(i - nc) + ("^%d" % exps[i] if exps[i] > 1 else ""))
    for r in range(nc):
        if exps[r]:
            parts.append(ray_name(rays[r]) + ("^%d" % exps[r] if exps[r] > 1 else ""))
    return "*".join(parts)


def _poly_text(poly, nc, rays):
    out = ""
    for coeff, exps in poly:
        mono = _mono_text(exps, nc, rays)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%d*%s" % (mag, mono)
        if not out:
            out = ("-" if coeff < 0 else "") + body
        else:
            out += (" - " if coeff < 0 else " + ") + body
    return out or "0"


def render_text(doc):
    """Stable plain-text listing of a presentation's JSON document: base
    ring, variables, relation groups with their tags, Hilbert vector."""
    fan_doc = doc["base_ring"]["fan"]
    rays = [tuple(r) for r in fan_doc["rays"]]
    nc = len(doc["base_ring"]["names"])
    lines = [
        "base ring: rank %d fan, %d rays, %d max cones"
        % (fan_doc["rank"], len(rays), len(fan_doc["max_cones"])),
        "generators: %s" % (" ".join(ray_name(r) for r in rays) or "none"),
        "t variables: %s"
        % (" ".join(t_name(i) for i in range(len(doc["t_vars"]))) or "none"),
    ]
    if "nested" in doc:
        members = ",".join(t_name(p) for p in doc["nested"]["members"]) or "none"
        nrays = ",".join(ray_name(rays[r]) for r in doc["nested"]["rays"]) or "none"
        lines.append("nested: members %s | rays %s" % (members, nrays))
    current = None
    for rel in doc["relations"]:
        if rel["group"] != current:
            current = rel["group"]
            lines.append("group %s:" % current)
        tag = ""
        if current == "F":
            tag = "[%s] " % t_name(rel["provenance"]["member"])
        lines.append("  %s%s" % (tag, _poly_text(rel["poly"], nc, rays)))
    lines.append("hilbert: %s" % _vec(doc["hilbert"]))
    torsion_lines = [
        "torsion at degree %d: %s" % (d, _vec(t))
        for d, t in enumerate(doc["torsion"])
        if t
    ]
    lines.extend(torsion_lines or ["torsion: none"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands; each returns (document, ok)


def _report_doc(rep):
    return {"ok": rep.ok, "failures": _jsonable(list(rep.failures))}


def cmd_validate(job, args):
    f = job.fan
    smooth = validate_smooth(f)
    complete = validate_complete(f)
    doc = {"fan": {"smooth": _report_doc(smooth), "complete": _report_doc(complete)}}
    ok = smooth.ok and complete.ok
    try:
        poset = _kept_poset(job.layers)
    except SchemaError:
        raise
    except WonderError as exc:
        doc["poset"] = {"ok": False, "failures": [str(exc)]}
        return doc, False
    doc["poset"] = {"ok": True, "elements": len(poset.elements)}
    lats = [e.gamma for e in poset.elements]
    rep = validate_good(f, lats)
    failures = []
    for fl in rep.failures:
        entry = {"kind": fl[0], "detail": _jsonable(list(fl[1:]))}
        if fl[0] == "no_equal_sign_basis":  # so a canonical row is mixed somewhere
            cone, chi, face = first_equal_sign_violation(f, lats[fl[1]])
            entry.update(layer=fl[1], cone=list(cone), cone_rays=[list(f.rays[i]) for i in cone],
                         character=list(chi), face=list(face))
        failures.append(entry)
    doc["good"] = {"ok": rep.ok, "failures": failures}
    ok = ok and rep.ok
    try:
        building = job_building(job, poset)
    except SchemaError:
        raise
    except WonderError as exc:
        doc["building"] = {"ok": False, "failures": [str(exc)]}
        return doc, False
    doc["building"] = {"ok": True, "members": list(building.members)}
    return doc, ok


def cmd_poset(job, args):
    poset = _kept_poset(job.layers)
    doc = {
        "elements": [
            dict(layer_to_dict(e), codim=e.codim) for e in poset.elements
        ],
        "inclusion": [[bool(v) for v in row] for row in poset.inclusion],
    }
    return doc, True


def _nested_verdict(f, building, pair):
    """(is_nested, is_nested_plus) of one pair; bench/tracing.py calls it."""
    t_pos, rays = pair
    ids = [building.members[p] for p in t_pos]
    return is_nested(ids, building), is_nested_plus(ids, rays, building, f)


def cmd_nested(job, args):
    building = _building(job)
    pairs = nested_plus_sets(building, job.fan)
    nested_list = [list(t) for t, r in pairs if not r]
    plus_list = [{"members": list(t), "rays": list(r)} for t, r in pairs]
    doc = {
        "members": list(building.members),
        "nested": nested_list,
        "nested_plus": plus_list,
        "counts": {"nested": len(nested_list), "nested_plus": len(plus_list)},
    }
    return doc, True


# what identifies a job's model; job_poset and job_building read it like a Job
_ModelKey = collections.namedtuple("ModelKey", "fan layers building")


@functools.lru_cache(maxsize=1)  # keyed by the layers alone; a raised error is not kept
def _kept_poset(layers):
    return job_poset(_ModelKey(None, layers, None))


@functools.lru_cache(maxsize=1)  # the last model's; a raised error is not kept
def _kept_building(key):
    return job_building(key, _kept_poset(key.layers))


@functools.lru_cache(maxsize=1)  # a second step: stratum schema errors come first
def _kept_model(key):
    return Model(key.fan, _kept_building(key))


def _building(job):
    """The job's building set, which checked its members when made."""
    return _kept_building(_ModelKey(job.fan, job.layers, job.building))


def _model(job):
    """The job's Model: the building set checks its members, then the
    Model the fan."""
    return _kept_model(_ModelKey(job.fan, job.layers, job.building))


def cmd_present(job, args):
    pres = model_ideal(_model(job))
    return presentation_to_dict(pres, args.max_degree), True


def _nested_from(job, args):
    if getattr(args, "nested", None) is not None:
        try:
            obj = json.loads(args.nested)
        except ValueError as exc:
            raise SchemaError("--nested is not valid JSON: %s" % exc)
        return parse_nested(obj)
    if job.nested is not None:
        return job.nested
    raise SchemaError("stratum needs a nested set (--nested or job key)")


def cmd_stratum(job, args):
    building = _building(job)
    members, rays = _nested_from(job, args)
    for p in members:
        if not 0 <= p < building.size:
            raise SchemaError("nested member position out of range: %d" % p)
    for r in rays:
        if not 0 <= r < len(job.fan.rays):
            raise SchemaError("nested ray index out of range: %d" % r)
    pres = stratum_ideal(_model(job), nested_set(members, rays))
    return presentation_to_dict(pres, args.max_degree), True


def cmd_betti(job, args):
    return {"betti": list(betti_of(_model(job)))}, True


def cmd_check(job, args):
    if args.max_degree is not None and args.max_degree < job.fan.rank:
        # the ranks would stop below the top degree the oracle reads
        raise SchemaError("check needs max_degree >= %d" % job.fan.rank)
    model = _model(job)
    pres = model_ideal(model)
    ranks, torsion = hilbert_function(pres, args.max_degree)
    betti = betti_of(model)
    rep = verify(ranks, betti, torsion=torsion)
    doc = {
        "hilbert": list(ranks),
        "torsion": [list(t) for t in torsion],
        "betti": list(betti),
        "ok": rep.ok,
        "failures": _jsonable(list(rep.failures)),
        "display": "%s=%s" % (_vec(strip_zeros(ranks)), _vec(betti)),
    }
    return doc, rep.ok


def cmd_goodfan(job, args):
    poset = _kept_poset(job.layers)  # a repair's betti reuses it
    lats = [e.gamma for e in poset.elements]
    if args.search:
        fixed, steps = search_good_fan(job.fan, lats, args.budget)
        doc = {"fan": fan_to_dict(fixed), "steps": steps, "seed": read_seed()}
        return doc, True
    rep = validate_good(job.fan, lats)
    return {"good": _report_doc(rep), "seed": read_seed()}, rep.ok


HANDLERS = {
    "validate": cmd_validate,
    "poset": cmd_poset,
    "nested": cmd_nested,
    "present": cmd_present,
    "stratum": cmd_stratum,
    "betti": cmd_betti,
    "check": cmd_check,
    "goodfan": cmd_goodfan,
}


# ---------------------------------------------------------------------------
# plumbing


def _text_for(command, doc):
    if command in ("present", "stratum"):
        return render_text(doc)
    if command == "check":
        lines = [
            "hilbert: %s" % _vec(doc["hilbert"]),
            "oracle: %s" % _vec(doc["betti"]),
            "%s %s" % (doc["display"], "ok" if doc["ok"] else "MISMATCH"),
        ]
        lines += ["failure: %s" % json.dumps(fl) for fl in doc["failures"]]
        return "\n".join(lines) + "\n"
    if command == "betti":
        return "betti: %s\n" % _vec(doc["betti"])
    if command == "poset":
        lines = []
        for i, e in enumerate(doc["elements"]):
            lines.append(
                "element %d: codim %d gamma %s phi %s"
                % (i, e["codim"], e["gamma"], e["phi"])
            )
        return "\n".join(lines) + "\n"
    if command == "nested":
        lines = ["members: %s" % doc["members"]]
        lines += ["nested: %s" % t for t in doc["nested"]]
        lines += [
            "nested+: members %s rays %s" % (p["members"], p["rays"])
            for p in doc["nested_plus"]
        ]
        return "\n".join(lines) + "\n"
    # validate / goodfan: one line per report entry, stable key order
    return dumps(doc) + "\n"


@functools.lru_cache(maxsize=1)  # parse_args does not change the parser
def _parser():
    ap = argparse.ArgumentParser(
        prog="wondertoric",
        description="presentations and Betti oracles for compactified "
        "toric arrangement models, driven by JSON job files",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="job JSON file")
        p.add_argument("--max-degree", dest="max_degree", type=int, default=None)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--jobs", type=int, default=None, help="no effect")
        p.add_argument("--output", default=None)
        p.add_argument("--format", choices=("json", "text"), default="json")
        if name == "stratum":
            p.add_argument("--nested", default=None, help="inline nested-set JSON")
        if name == "goodfan":
            p.add_argument("--search", action="store_true")
    return ap


def _emit(payload, output):
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise SchemaError("cannot write output: %s" % exc)
    else:
        sys.stdout.write(payload)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        for key in ("max_degree", "budget", "jobs"):  # flags follow the job schema
            if getattr(args, key) is not None:
                check_option(key, getattr(args, key))
        job = load_job(args.input)
        if args.max_degree is None:
            args.max_degree = job.max_degree
        if args.budget is None:
            args.budget = job.budget
        if args.output is None:
            args.output = job.output
        doc, ok = HANDLERS[args.command](job, args)
        if args.format == "json":
            payload = dumps(doc) + "\n"
        else:
            payload = _text_for(args.command, doc)
        _emit(payload, args.output)
        return 0 if ok else 1
    except SchemaError as exc:
        print("schema error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetExhausted as exc:
        print("budget exhausted: %s" % exc, file=sys.stderr)
        return 3
    except WonderError as exc:
        print("validation failure: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
