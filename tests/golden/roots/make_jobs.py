"""Write the root-system job files of this directory.

Toric arrangements of the root systems A3 and B3 on their Weyl-chamber
fans, which are good for them as they are (Procesi 1990):

- A_n: a ray per nonempty proper S of {0..n}, the vector w with
  w_k = [k in S] - [0 in S] for k = 1..n; a chamber per permutation pi of
  {0..n}, spanned by the rays of {pi_0}, {pi_0, pi_1}, ... (n of them);
  hypertori e_k (1 <= k <= n) and e_i - e_j (1 <= i < j <= n) at phi 0,
  and in the translated variant each of them again at phi 1/2.
- B_n: a ray per nonzero vector sum_{k<m} s_k e_{pi_k} (pi a permutation,
  s signs, m = 1..n), a chamber per (pi, s); hypertori e_i and e_i +- e_j
  at phi 0.

Every job takes the whole poset as its building set.  Run from the
repository root:

    python3 tests/golden/roots/make_jobs.py            # the job files
    PYTHONPATH=src python3 tests/golden/roots/make_jobs.py --outputs

`--outputs` also writes the frozen outputs: `<stem>.check.json`, what the
`check` command writes, and per stratum in `STRATA` a summary
`<stem>.stratum_<name>.json`.  A stratum document of these models lists
every F(i, A), 9 MB on A3 and 109 MB on A3 with translates, so the summary
keeps what the ring answers instead: the nested set, the Hilbert function
and torsion, and the normal form of every generator's powers up to the
rank.  `tests/test_cli.py` compares both kinds byte for byte.
"""

import itertools
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).parent


def unit(n, k):
    return [int(i == k) for i in range(n)]


def a_fan(n):
    subsets = [s for size in range(1, n + 1) for s in itertools.combinations(range(n + 1), size)]
    rays = [[int(k in s) - int(0 in s) for k in range(1, n + 1)] for s in subsets]
    index = {s: i for i, s in enumerate(subsets)}
    cones = {
        tuple(sorted(index[tuple(sorted(pi[: m + 1]))] for m in range(n)))
        for pi in itertools.permutations(range(n + 1))
    }
    return rays, sorted(cones)


def a_roots(n):
    roots = [unit(n, k) for k in range(n)]
    roots += [[a - b for a, b in zip(unit(n, i), unit(n, j))] for i, j in itertools.combinations(range(n), 2)]
    return roots


def b_fan(n):
    chains = [
        [[sum(s[k] * (pi[k] == i) for k in range(m + 1)) for i in range(n)] for m in range(n)]
        for pi in itertools.permutations(range(n))
        for s in itertools.product((1, -1), repeat=n)
    ]
    rays = sorted({tuple(r) for chain in chains for r in chain}, reverse=True)
    index = {r: i for i, r in enumerate(rays)}
    cones = sorted({tuple(sorted(index[tuple(r)] for r in chain)) for chain in chains})
    return [list(r) for r in rays], cones


def b_roots(n):
    roots = [unit(n, k) for k in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        for sign in (1, -1):
            roots.append([a + sign * b for a, b in zip(unit(n, i), unit(n, j))])
    return roots


def job(n, fan, roots, phis):
    rays, cones = fan
    return {
        "rank": n,
        "fan": {"rank": n, "rays": rays, "max_cones": [list(c) for c in cones]},
        "layers": [{"gamma": [chi], "phi": [phi]} for phi in phis for chi in roots],
    }


JOBS = {
    "a3": job(3, a_fan(3), a_roots(3), ["0/1"]),
    "a3_half": job(3, a_fan(3), a_roots(3), ["0/1", "1/2"]),
    "b3": job(3, b_fan(3), b_roots(3), ["0/1"]),
}


# per model: (name, nested members, nested rays); a codim-1 member, alone
# and with a ray in its kernel
STRATA = {
    "a3": [("surface", [6], []), ("surface_ray", [6], [1])],
    "a3_half": [("surface", [10], []), ("surface_ray", [10], [2])],
    "b3": [("surface", [7], []), ("surface_ray", [7], [9])],
}


def stratum_summary(stem, members, rays):
    """The JSON text of a stratum's summary: its nested set, Hilbert
    function, torsion and the normal forms of x^1..x^rank per generator x."""
    from wondertoric.cli import dumps
    from wondertoric.jobs import job_building, job_poset, load_job
    from wondertoric.present import Model, hilbert_function, nested_set, stratum_ideal

    job = load_job(HERE / (stem + ".job.json"))
    pres = stratum_ideal(Model(job.fan, job_building(job, job_poset(job))), nested_set(members, rays))
    ranks, torsion = hilbert_function(pres)
    ring = pres.ring
    forms = []
    for j in range(ring.nvars):
        for k in range(1, job.fan.rank + 1):
            e = tuple(k * (i == j) for i in range(ring.nvars))
            forms.append([[c, list(x)] for x, c in ring.normal_form({e: 1}).terms])
    doc = {
        "nested": {"members": members, "rays": rays},
        "hilbert": list(ranks),
        "torsion": [list(t) for t in torsion],
        "normal_forms": forms,
    }
    return dumps(doc) + "\n"


def main(argv):
    for stem, doc in JOBS.items():
        with open(HERE / (stem + ".job.json"), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if "--outputs" not in argv:
        return
    from wondertoric.cli import main as cli_main

    for stem in JOBS:
        job = str(HERE / (stem + ".job.json"))
        cli_main(["check", "--input", job, "--output", str(HERE / (stem + ".check.json"))])
        for name, members, rays in STRATA[stem]:
            with open(HERE / ("%s.stratum_%s.json" % (stem, name)), "w") as fh:
                fh.write(stratum_summary(stem, members, rays))


if __name__ == "__main__":
    main(sys.argv[1:])
