"""Traced replay of an op list, for the per-layer metrics.

Each op is driven again through the public functions of the modules its
command uses, in the order the command calls them, with a span around each
call.  Spans live in memory as [name, start, end, parent index, op id] and
are written out when the run ends.  Nothing inside the package is patched:
the only hook is the `lift_rel=` argument the assembly functions accept, so
a module's cost stays inside the span of its caller when the benchmark does
not call it directly (the lattice module has no span for that reason).

Besides the replay, a few standalone probes run outside the op spans:
`check_model_preconditions` and `validate_good` once per op whose command
runs them, and `parallel_map` over the nested verdicts with one and with
two workers.
"""

import collections
import functools
import json
import time
from contextlib import contextmanager

from wondertoric.building import building_set, is_nested, is_nested_plus
from wondertoric.chern import lift_chern_relative
from wondertoric.cli import _nested_verdict  # the `nested` command's pool worker
from wondertoric.cohomology import from_terms, pdegree
from wondertoric.errors import BudgetExhausted
from wondertoric.fans import fan_to_dict, search_good_fan, validate_good
from wondertoric.jobs import load_job, parallel_map, parse_nested, read_seed
from wondertoric.layers import build_layer_poset
from wondertoric.oracle import model_betti, verify
from wondertoric.present import (
    assemble_model_ideal,
    assemble_stratum_ideal,
    check_model_preconditions,
    hilbert_function,
    nested_set,
    presentation_to_dict,
)

from checks import subsets

SLICE_DEGREES = 5  # cohomology.slice_s.d0 .. d4: rank-3 models go up to degree 4
POOL_WORKERS = 2

# Runs of check_model_preconditions along each command's path: the
# assemble_*_ideal functions and model_betti each run it once.
PRECONDITION_RUNS = {"check": 2, "stratum": 1, "betti": 1, "repair": 1}


class Tracer:
    """Spans of one traced replay, plus counts taken at the same calls."""

    def __init__(self):
        self.spans = []
        self.totals = collections.Counter()
        self.lift_pairs = set()
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def dump(self):
        keys = ("name", "start", "end", "parent", "op")
        return [dict(zip(keys, s)) for s in self.spans]


def _render(t, path, make_doc):
    with t.span("cli.render"):
        payload = json.dumps(make_doc(), indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(payload)


def _poset(t, path):
    with t.span("jobs.load"):
        job = load_job(path)
    with t.span("layers.poset"):
        poset = build_layer_poset(list(job.layers))
    t.totals["layers.poset_elements"] += len(poset.elements)
    return job, poset


def _model(t, path):
    job, poset = _poset(t, path)
    with t.span("building.validate"):
        b = building_set(poset)
    return job, b


def _lift_hook(t):
    def lift(G, M, ring, f):
        t.lift_pairs.add((G, M))
        with t.span("chern.lift"):
            return lift_chern_relative(G, M, ring, f)

    return lift


def _top_degree(pres, max_degree):
    return pres.fan.rank + 1 if max_degree is None else max_degree


def _hilbert(t, pres, max_degree):
    for d in range(_top_degree(pres, max_degree) + 1):
        with t.span("cohomology.slice.d%d" % d):
            pres.ring.slice_table(d)
    with t.span("present.hilbert"):
        return hilbert_function(pres, max_degree)


def _check(t, op, out, repaired_job):
    job, b = _model(t, op.job)
    with t.span("present.assemble"):
        pres = assemble_model_ideal(job.fan, b, lift_rel=_lift_hook(t))
    ranks, torsion = _hilbert(t, pres, job.max_degree)
    with t.span("oracle.betti"):
        betti = model_betti(job.fan, b)
    with t.span("oracle.verify"):
        rep = verify(ranks, betti, torsion=torsion)
    _render(t, out[0], lambda: {
        "hilbert": list(ranks),
        "torsion": [list(x) for x in torsion],
        "betti": list(betti),
        "ok": rep.ok,
    })
    return 0, (job.fan, b), (pres, job.max_degree)


def _stratum(t, op, out, repaired_job):
    job, b = _model(t, op.job)
    members, rays = parse_nested(op.nested)
    with t.span("present.assemble"):
        pres = assemble_stratum_ideal(
            job.fan, b, nested_set(members, rays), lift_rel=_lift_hook(t)
        )
    _hilbert(t, pres, job.max_degree)
    _render(t, out[0], lambda: presentation_to_dict(pres, job.max_degree))
    return 0, (job.fan, b), (pres, job.max_degree)


def _nested(t, op, out, repaired_job):
    job, b = _model(t, op.job)
    f = job.fan
    pairs = [(tp, r) for tp in subsets(b.size) for r in subsets(len(f.rays))]
    verdicts = []
    for tp, r in pairs:
        ids = [b.members[p] for p in tp]
        with t.span("building.nested"):
            plain = is_nested(ids, b)
        with t.span("building.nested_plus"):
            plus = is_nested_plus(ids, r, b, f)
        verdicts.append((plain, plus))
    t.totals["building.nested_calls"] += len(pairs)
    t.totals["building.nested_hits"] += sum(v[1] for v in verdicts)
    nested = [list(tp) for (tp, r), v in zip(pairs, verdicts) if not r and v[0]]
    plus = [{"members": list(tp), "rays": list(r)}
            for (tp, r), v in zip(pairs, verdicts) if v[1]]
    _render(t, out[0], lambda: {
        "members": list(b.members),
        "nested": nested,
        "nested_plus": plus,
        "counts": {"nested": len(nested), "nested_plus": len(plus)},
    })
    return 0, (f, b, pairs), None


def _betti_of(t, path, out):
    job, b = _model(t, path)
    with t.span("oracle.betti"):
        betti = model_betti(job.fan, b)
    _render(t, out[-1], lambda: {"betti": list(betti)})
    return 0, (job.fan, b), None


def _betti(t, op, out, repaired_job):
    return _betti_of(t, op.job, out)


def _search(t, op, out, repaired_job=None):
    job, poset = _poset(t, op.job)
    lats = [e.gamma for e in poset.elements]
    try:
        with t.span("fans.search"):
            fixed, steps = search_good_fan(job.fan, lats, job.budget)
    except BudgetExhausted:
        t.totals["fans.search_exhausted"] += 1
        t.totals["fans.search_steps"] += job.budget  # raised after `budget` steps
        return 3, None, None
    t.totals["fans.search_steps"] += steps
    _render(t, out[0], lambda: {"fan": fan_to_dict(fixed), "steps": steps, "seed": read_seed()})
    return 0, fixed, None


def _repair(t, op, out, repaired_job):
    rc, fixed, _ = _search(t, op, out)
    if rc:
        return rc, None, None
    with open(op.job) as fh:
        doc = json.load(fh)
    doc["fan"] = fan_to_dict(fixed)
    with open(repaired_job, "w") as fh:
        json.dump(doc, fh)
    return _betti_of(t, repaired_job, out)


# each returns (exit code, what the probes need, (presentation, max degree) or None)
PATHS = {
    "check": _check,
    "stratum": _stratum,
    "nested": _nested,
    "betti": _betti,
    "repair": _repair,
    "diverge": _search,
}


def replay(t, op, out, repaired_job):
    """Run one op traced; returns its exit code.  Counts and probes that are
    not part of the command's own work run after the op span closes."""
    t.op = op.name
    with t.span("op"):
        rc, ctx, pres = PATHS[op.kind](t, op, out, repaired_job)
    if pres is not None:
        _count_ring(t, *pres)
    runs = PRECONDITION_RUNS.get(op.kind, 0)
    if rc == 0 and runs:
        f, b = ctx
        lats = [e.gamma for e in b.poset.elements]
        # one standalone call each, scaled by the runs along the path
        t.totals["present.preconditions_calls"] += runs
        with t.span("present.preconditions") as rec:
            check_model_preconditions(f, b)
        t.totals["present.preconditions_s"] += runs * (rec[2] - rec[1])
        with t.span("fans.validate") as rec:
            validate_good(f, lats)
        t.totals["fans.validate_s"] += runs * (rec[2] - rec[1])
    if op.kind == "nested":
        _pool_probe(t, *ctx)
    t.op = None
    return rc


def _count_ring(t, pres, max_degree):
    """Size of the slices _hilbert built: columns, rank, and the rows the
    slice construction inserts (every relation times every monomial that
    lifts it to the slice degree)."""
    ring = pres.ring
    t.totals["present.relations"] += len(pres.groups)
    degrees = collections.Counter(
        pdegree(from_terms(r)) for r in ring.substituted_relations()
    )
    for d in range(_top_degree(pres, max_degree) + 1):
        momos, _, ech = ring.slice_table(d)
        t.totals["cohomology.slice_cols"] += len(momos)
        t.totals["cohomology.rank"] += ech.rank
        t.totals["cohomology.rows_inserted"] += sum(
            n * len(ring.monomials(d - e)) for e, n in degrees.items() if e <= d
        )


def _pool_probe(t, f, b, pairs):
    fn = functools.partial(_nested_verdict, f, b)
    start = time.perf_counter()
    serial = parallel_map(fn, pairs, 1)
    mid = time.perf_counter()
    pooled = parallel_map(fn, pairs, POOL_WORKERS)
    end = time.perf_counter()
    if pooled != serial:
        raise RuntimeError("parallel_map changed the nested verdicts")
    t.totals["jobs.pool_serial_s"] += mid - start
    t.totals["jobs.pool_workers_s"] += end - mid


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t, untraced_total):
    """Per-layer metrics of one traced op list, summed over its ops.

    A layer the op list never reaches reads 0.  untraced_total is the time
    the same ops took through the command line entry point, untraced."""
    dur = collections.Counter()
    calls = collections.Counter()
    covered = collections.Counter()
    for name, start, end, parent, _ in t.spans:
        dur[name] += end - start
        calls[name] += 1
        if parent is not None:
            covered[parent] += end - start
    roots = [(i, s[2] - s[1]) for i, s in enumerate(t.spans) if s[0] == "op"]
    traced_total = sum(d for _, d in roots)
    uncovered = sum(d - covered[i] for i, d in roots)
    tot = t.totals
    m = {"cohomology.slice_s.d%d" % d: dur["cohomology.slice.d%d" % d]
         for d in range(SLICE_DEGREES)}
    m.update({
        "cohomology.slice_cols": tot["cohomology.slice_cols"],
        "cohomology.rows_inserted": tot["cohomology.rows_inserted"],
        "cohomology.rank": tot["cohomology.rank"],
        "cohomology.rows_useful_ratio": _ratio(
            tot["cohomology.rank"], tot["cohomology.rows_inserted"]),
        "chern.lift_s": dur["chern.lift"],
        "chern.lift_calls": calls["chern.lift"],
        "chern.lift_repeat_ratio": _ratio(calls["chern.lift"], len(t.lift_pairs)),
        "present.preconditions_s": tot["present.preconditions_s"],
        "present.preconditions_calls": tot["present.preconditions_calls"],
        "present.assemble_s": dur["present.assemble"] - dur["chern.lift"],
        "present.relations": tot["present.relations"],
        "present.hilbert_s": dur["present.hilbert"],
        "building.validate_s": dur["building.validate"],
        "building.nested_s": dur["building.nested"] + dur["building.nested_plus"],
        "building.nested_calls": tot["building.nested_calls"],
        "building.nested_hit_ratio": _ratio(
            tot["building.nested_hits"], tot["building.nested_calls"]),
        "fans.search_s": dur["fans.search"],
        "fans.search_steps": tot["fans.search_steps"],
        "fans.search_exhausted": tot["fans.search_exhausted"],
        "fans.validate_s": tot["fans.validate_s"],
        "layers.poset_s": dur["layers.poset"],
        "layers.poset_elements": tot["layers.poset_elements"],
        "oracle.betti_s": dur["oracle.betti"],
        "oracle.verify_s": dur["oracle.verify"],
        "jobs.load_s": dur["jobs.load"],
        "jobs.pool_speedup": _ratio(tot["jobs.pool_serial_s"], tot["jobs.pool_workers_s"]),
        "cli.render_s": dur["cli.render"],
        "trace.overhead_share": _ratio(traced_total, untraced_total),
        "trace.uncovered_share": _ratio(uncovered, traced_total),
    })
    return m


def unit_of(name):
    if name.endswith("_ratio") or name.endswith("_share") or name.endswith("_speedup"):
        return "ratio"
    return "s" if name.endswith("_s") or "_s." in name else "count"
