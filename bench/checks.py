"""Output checks, run outside the timed region.

Every reference here is independent of the code path being timed: closed
forms for the coordinate families, a direct count of torus points for the
skew curves, one fixed Betti vector for the relabeled rank-3 family, and the
test suite's own nested-set reference for `nested`.
"""

import itertools
import json

from _oracles import nested_plus_reference
from wondertoric.building import building_set
from wondertoric.fans import fan_from_dict, validate_good
from wondertoric.jobs import load_job
from wondertoric.layers import build_layer_poset

from workloads import Op

OK, KNOWN_DEFECT, FAILED = "ok", "known_defect", "failed"


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _strip(vec):
    vec = list(vec)
    while vec and vec[-1] == 0:
        vec.pop()
    return vec


def subsets(n):
    """Subsets of range(n) in the order the `nested` command lists them."""
    return itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(n + 1)
    )


def reference_nested_plus(job_path):
    """Nested+ sets of the job's whole-poset building set, in the order the
    `nested` command lists its candidates."""
    job = load_job(job_path)
    b = building_set(build_layer_poset(list(job.layers)))
    return [
        {"members": list(t), "rays": list(r)}
        for t in subsets(b.size)
        for r in subsets(len(job.fan.rays))
        if nested_plus_reference([b.members[p] for p in t], r, b, job.fan)
    ]


def _check_doc(doc, op):
    return (
        doc["ok"] is True
        and doc["betti"] == list(op.expect["betti"])
        and _strip(doc["hilbert"]) == list(op.expect["betti"])
        and all(t == [] for t in doc["torsion"])
    )


def _stratum_doc(doc, op):
    h = doc["hilbert"]
    top = op.expect["top"]
    good = len(h) > top and h[0] == 1 and h[top] == 1 and not any(h[top + 1:])
    if "model_betti" in op.expect:
        good = good and _strip(h) == list(op.expect["model_betti"])
    return good


def _repair_doc(doc, fan_doc, op):
    if "points" in op.expect:
        want = [1, len(fan_doc["rays"]) - 2 + op.expect["points"], 1]
    else:
        want = list(op.expect["betti"])
    return doc["betti"] == want


def check(op, rc, outputs):
    """Verdict (OK, KNOWN_DEFECT or FAILED) on one op's exit code and output
    files, plus the ops that follow from it (the strata of a nested op)."""
    if op.kind == "diverge":
        if rc == op.expect["exit"]:
            return KNOWN_DEFECT, []
        if rc != 0:
            return FAILED, []
        # the defect is fixed: the search output must be a good fan
        fixed = fan_from_dict(_load(outputs[0])["fan"])
        lats = [e.gamma for e in build_layer_poset(list(load_job(op.job).layers)).elements]
        return (OK if validate_good(fixed, lats).ok else FAILED), []
    if rc != 0:
        return FAILED, []
    doc = _load(outputs[-1])
    if op.kind == "check":
        return (OK if _check_doc(doc, op) else FAILED), []
    if op.kind == "betti":
        return (OK if doc["betti"] == list(op.expect["betti"]) else FAILED), []
    if op.kind == "repair":
        return (OK if _repair_doc(doc, _load(outputs[0])["fan"], op) else FAILED), []
    if op.kind == "stratum":
        return (OK if _stratum_doc(doc, op) else FAILED), []
    if op.kind == "nested":
        ref = reference_nested_plus(op.job)
        good = (
            doc["nested_plus"] == ref
            and doc["nested"] == [e["members"] for e in ref if not e["rays"]]
            and doc["counts"] == {"nested": len(doc["nested"]), "nested_plus": len(ref)}
        )
        rank = _load(op.job)["rank"]
        follow = []
        for i, ns in enumerate(ref):
            expect = {"top": rank - len(ns["members"]) - len(ns["rays"])}
            if not ns["members"] and not ns["rays"]:
                expect["model_betti"] = op.expect["model_betti"]
            follow.append(Op("%s-stratum%d" % (op.name, i), "stratum", op.job, expect, ns))
        return (OK if good else FAILED), follow
    raise ValueError("unknown op kind %r" % (op.kind,))
