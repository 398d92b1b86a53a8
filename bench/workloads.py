"""Seeded job generation for the benchmark, with the expected verdicts.

Inputs are built with integer arithmetic only: labels, trees, admissible
alpha indices, chord scalars as ints, "p/q" strings or short coefficient
records, and the involution index of the twisted form job.  No coxrep
code runs here, so field setup stays inside the timed jobs.

A workload is a list of instances; each instance contributes input
documents (name -> JSON), jobs and probes.  A job is the argv of one
`coxrep` call, with `*.json` arguments naming documents, plus what the
answer must be by construction:

    verify  exit 0, passed, commutant dimension 1
    form    exit 0, invariance verified whenever a form exists
    equiv   exit 0 and the generated verdict
    dual    exit 0, chord coefficients match when the discriminant is nonzero

Jobs are the timed work, and every one has a correct answer today.  Probes
are the same kind of call on the inputs that meet a known defect
(KNOWN_DEFECTS): `verify` on the large-conductor triangles and on a label
above 60 with the default `--max-order`, and `equiv --root2` without the
second tree and parameters.  The timed jobs on those instances pass
`--max-order` and `--tree2`/`--params2`, or leave out `verify`.

Every slot of a workload pins what sets its cost: rank, label alphabet,
graph, label placement, tree, root and which chord scalars are irrational
come from a generator keyed by the slot, and in `scale` also the conductor
of each triangle.  The seed draws the alpha indices and the chord scalars'
values (and the labels of the high-label instances), so the cost of a
pass moves little from seed to seed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("corpus-verify-form", "corpus-equiv-dual", "scale")

# The acceptance corpus shape: label alphabets drawn from 3..7 and rank 1..5
# in the corpus's proportions; every alphabet keeps the conductor at or
# below 280.
ALPHABETS = [
    (3,), (4,), (5,), (6,), (7,),
    (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (5, 6), (4, 7), (6, 7), (5, 7),
    (3, 4, 5), (3, 4, 6), (4, 5, 6), (3, 5, 7), (3, 6, 7),
]
CORPUS_RANKS = (4, 2, 5, 3, 1, 4, 5, 3, 2, 4, 5, 3, 4, 5)
CORPUS_EXTRA_EDGES = (0, 1, 0, 2, 1)
CHORD_CHOICES = (1, 2, 3, -1, -2, "1/2", "3/2", "-1/3", "5/2", 4)

# A `scale` pass is four instances, and each pins what sets its cost:
# big diagrams fix rank, alphabet, graph and labels per slot, and triangles
# fix the conductor and label order.  The seed draws the tree, root, alpha
# indices and (rational) chord scalars, and the labels of the high-label
# instances.
SCALE_BIG = ((10, (3, 4), 0),)
TRIANGLE_CONDUCTORS = (336, 1260)
TRIANGLE_LABELS = range(3, 14)
HIGH_LABELS = range(61, 71)
# the scale instances cycle through triangle, big diagram, high label
SCALE_PATTERN = ("triangle", "big", "high-label")


def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def conductor(labels) -> int:
    """lcm of 2*m over the edge labels, as `construction.conductor_for`."""
    n = 1
    for m in labels:
        n = math.lcm(n, 2 * m)
    return n


def field_degree(n: int) -> int:
    return euler_phi(n) // 2 if n > 2 else 1


def admissible_indices(m: int) -> tuple[int, ...]:
    return tuple(k for k in range(1, m // 2 + 1) if math.gcd(k, m) == 1)


def first_involution_index(n: int) -> int | None:
    """Smallest canonical Galois index j != 1 with j^2 = +-1 (mod n)."""
    for j in range(2, n // 2 + 1):
        if math.gcd(j, n) == 1 and (j * j) % n in (1, n - 1):
            return j
    return None


class Instance:
    """One diagram with tree and parameters, as JSON documents."""

    def __init__(self, index: int, rows: list[list[int]], root: int,
                 tree_edges: list[tuple[int, int]], alpha: dict, chords: dict):
        self.index = index
        self.rank = len(rows)
        self.labels = [f"s{i + 1}" for i in range(self.rank)]
        self.rows = rows
        self.root = root
        self.tree_edges = tree_edges
        self.alpha = alpha          # (s, t) -> admissible index
        self.chords = chords        # (s, t) -> scalar document
        self.edges = [(s, t) for s, t in itertools.combinations(range(self.rank), 2)
                      if rows[s][t] >= 3]
        self.conductor = conductor(rows[s][t] for s, t in self.edges)

    def key(self, edge) -> str:
        return f"{self.labels[edge[0]]}-{self.labels[edge[1]]}"

    def name(self, part: str) -> str:
        return f"i{self.index:04d}.{part}.json"

    def params_doc(self, alpha: dict | None = None, chords: dict | None = None) -> dict:
        alpha = self.alpha if alpha is None else alpha
        chords = self.chords if chords is None else chords
        return {"alpha": {self.key(e): k for e, k in sorted(alpha.items())},
                "chords": {self.key(e): v for e, v in sorted(chords.items())}}

    def documents(self) -> dict:
        return {
            self.name("diagram"): {"rank": self.rank, "m": self.rows,
                                   "labels": self.labels},
            self.name("tree"): {"edges": [[self.labels[s], self.labels[t]]
                                          for s, t in self.tree_edges]},
            self.name("params"): self.params_doc(),
        }

    def job_args(self) -> list[str]:
        return ["--diagram", self.name("diagram"), "--root", self.labels[self.root],
                "--tree", self.name("tree"), "--params", self.name("params"),
                "--format", "json"]

    @property
    def max_label(self) -> int:
        return max((self.rows[s][t] for s, t in self.edges), default=2)

    @property
    def nontrivial_alpha(self) -> bool:
        return any(k != 1 for k in self.alpha.values())


def _random_graph(rng: random.Random, rank: int, extra: int) -> list[tuple[int, int]]:
    """A random tree on `rank` vertices plus `extra` further edges."""
    edges = {(rng.randrange(v), v) for v in range(1, rank)}
    candidates = [e for e in itertools.combinations(range(rank), 2) if e not in edges]
    rng.shuffle(candidates)
    edges.update(candidates[:extra])
    return sorted(edges)


def _random_tree(rng: random.Random, rank: int, edges) -> list[tuple[int, int]]:
    shuffled = list(edges)
    rng.shuffle(shuffled)
    reach = list(range(rank))

    def find(v):
        while reach[v] != v:
            reach[v] = reach[reach[v]]
            v = reach[v]
        return v

    chosen = []
    for s, t in shuffled:
        rs, rt = find(s), find(t)
        if rs != rt:
            reach[rs] = rt
            chosen.append((s, t))
    return sorted(chosen)


def _chord_scalar(rng: random.Random, fixed: random.Random, degree: int, irrational: bool):
    if irrational and fixed.random() < 0.25:
        a, b, d = rng.choice([-2, -1, 1, 2, 3]), rng.choice([-1, 1, 2]), rng.choice([1, 2, 3])
        return {"num": [a, b] if degree >= 2 else [a], "den": d}
    return rng.choice(CHORD_CHOICES)


def _instance(rng: random.Random, fixed: random.Random, index: int, rows: list[list[int]],
              irrational_chords: bool = True) -> Instance:
    """The slot's own `fixed` generator draws the tree, the root and which
    chord scalars are irrational; the seeded `rng` draws the alpha indices
    and the scalars' values."""
    rank = len(rows)
    edges = [(s, t) for s, t in itertools.combinations(range(rank), 2) if rows[s][t] >= 3]
    tree = _random_tree(fixed, rank, edges)
    degree = field_degree(conductor(rows[s][t] for s, t in edges))
    alpha = {e: rng.choice(admissible_indices(rows[e[0]][e[1]])) for e in edges}
    chords = {e: _chord_scalar(rng, fixed, degree, irrational_chords)
              for e in edges if e not in tree}
    return Instance(index, rows, fixed.randrange(rank), tree, alpha, chords)


def _rows(rank: int, labelled_edges) -> list[list[int]]:
    rows = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for (s, t), m in labelled_edges:
        rows[s][t] = rows[t][s] = m
    return rows


def corpus_instance(rng: random.Random, index: int) -> Instance:
    rank = CORPUS_RANKS[index % len(CORPUS_RANKS)]
    alphabet = ALPHABETS[index % len(ALPHABETS)] if rank > 1 else (3,)
    extra = CORPUS_EXTRA_EDGES[index % len(CORPUS_EXTRA_EDGES)] if rank >= 3 else 0
    fixed = random.Random(f"corpus:{index}")
    rows = _rows(rank, _labelled(fixed, _random_graph(fixed, rank, extra), alphabet))
    return _instance(rng, fixed, index, rows)


def _labelled(rng: random.Random, edges, alphabet) -> list:
    """Edges with labels from the alphabet, each label used at least once
    while edges remain, so the conductor is set by the alphabet."""
    labels = rng.sample(alphabet, min(len(alphabet), len(edges)))
    labels += [rng.choice(alphabet) for _ in range(len(edges) - len(labels))]
    rng.shuffle(labels)
    return list(zip(edges, labels))


def big_instance(rng: random.Random, index: int, slot: int) -> Instance:
    slot %= len(SCALE_BIG)
    rank, alphabet, extra = SCALE_BIG[slot]
    fixed = random.Random(f"scale-big:{slot}")
    rows = _rows(rank, _labelled(fixed, _random_graph(fixed, rank, extra), alphabet))
    return _instance(rng, fixed, index, rows, irrational_chords=False)


def triangle_instance(rng: random.Random, index: int, slot: int) -> Instance:
    n = TRIANGLE_CONDUCTORS[slot % len(TRIANGLE_CONDUCTORS)]
    labels = next(t for t in itertools.combinations(TRIANGLE_LABELS, 3) if conductor(t) == n)
    fixed = random.Random(f"scale-triangle:{slot}")
    return _instance(rng, fixed, index, _rows(3, zip([(0, 1), (1, 2), (0, 2)], labels)),
                     irrational_chords=False)


def high_label_instance(rng: random.Random, index: int) -> Instance:
    return _instance(rng, rng, index, _rows(2, [((0, 1), rng.choice(HIGH_LABELS))]))


def _job(instance: Instance, kind: str, argv: list[str], expect: dict) -> dict:
    return {"kind": kind, "argv": argv, "expect": expect,
            "max_label": instance.max_label}


def verify_job(inst: Instance, extra: tuple[str, ...] = ()) -> dict:
    return _job(inst, "verify", ["verify"] + inst.job_args() + list(extra),
                {"exit": 0, "passed": True, "commutant_dimension": 1})


def form_jobs(inst: Instance, twisted: bool) -> list[dict]:
    jobs = [_job(inst, "form", ["form"] + inst.job_args() + ["--theta", "1"],
                 {"exit": 0, "invariance_verified_if_exists": True})]
    j = first_involution_index(inst.conductor) if twisted else None
    if j is not None:
        jobs.append(_job(inst, "form-twisted",
                         ["form"] + inst.job_args() + ["--theta", str(j)],
                         {"exit": 0, "invariance_verified_if_exists": True}))
    return jobs


def dual_job(inst: Instance) -> dict:
    return _job(inst, "dual", ["dual"] + inst.job_args(),
                {"exit": 0, "chords_match_if_nondegenerate": True})


def equiv_jobs(rng: random.Random, inst: Instance,
               documents: dict) -> tuple[list[dict], list[dict]]:
    """Jobs and probes: an equivalent pair by root change (trees only) and a
    distinct pair with one alpha index or one chord scalar changed.  The
    root-change job names the second tree and parameters; its probe passes
    `--root2` alone, as in the README example (see "root2-defaults")."""
    jobs, probes = [], []
    if not inst.chords:
        root2 = rng.choice([v for v in range(inst.rank) if v != inst.root] or [inst.root])
        argv = ["equiv"] + inst.job_args() + ["--root2", inst.labels[root2]]
        expect = {"exit": 0, "verdict": "equivalent"}
        jobs.append(_job(inst, "equiv-root", argv + ["--tree2", inst.name("tree"),
                                                     "--params2", inst.name("params")],
                         expect))
        probe = _job(inst, "equiv-root", argv, expect)
        probe["nontrivial_alpha"] = inst.nontrivial_alpha
        probes.append(probe)
    options = [("alpha", e) for e, k in inst.alpha.items()
               if len(admissible_indices(inst.rows[e[0]][e[1]])) > 1]
    options += [("chord", e) for e in inst.chords]
    if options:
        what, edge = rng.choice(options)
        alpha, chords = dict(inst.alpha), dict(inst.chords)
        if what == "alpha":
            m = inst.rows[edge[0]][edge[1]]
            alpha[edge] = rng.choice([k for k in admissible_indices(m) if k != alpha[edge]])
        else:
            chords[edge] = _shifted(chords[edge])
        documents[inst.name("params2")] = inst.params_doc(alpha, chords)
        jobs.append(_job(inst, "equiv-distinct", ["equiv"] + inst.job_args()
                         + ["--tree2", inst.name("tree"),
                            "--params2", inst.name("params2")],
                         {"exit": 0, "verdict": "distinct"}))
    return jobs, probes


def _shifted(scalar):
    """scalar + 1, or scalar + 2 where that sum would be 0; a single chord
    scalar moves a circuit trace, so any change gives a distinct pair."""
    if isinstance(scalar, dict):
        num = list(scalar["num"])
        num[0] += scalar["den"]
        if not any(num):
            num[0] += scalar["den"]
        return {"num": num, "den": scalar["den"]}
    value = Fraction(scalar) + 1
    return str(value if value else value + 1)


def generate(workload: str, seed: int,
             instances: int) -> tuple[dict, list[dict], list[dict]]:
    """Documents, jobs and probes of `instances` instances of a workload.

    Jobs are the timed work; every one of them has a correct answer today.
    Probes are the inputs that meet a known defect (KNOWN_DEFECTS): they run
    once, untimed, after the timed passes, and are reported on their own."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    documents: dict = {}
    jobs: list[dict] = []
    probes: list[dict] = []
    for i in range(instances):
        new_probes = []
        if workload == "scale":
            kind = SCALE_PATTERN[i % len(SCALE_PATTERN)]
            slot = i // len(SCALE_PATTERN)
            if kind == "big":
                inst = big_instance(rng, i, slot)
                new = [verify_job(inst)] + form_jobs(inst, twisted=False)
            elif kind == "triangle":
                inst = triangle_instance(rng, i, slot)
                new = form_jobs(inst, twisted=False) + [dual_job(inst)]
                new_probes = [verify_job(inst)]
            else:
                inst = high_label_instance(rng, i)
                new = [verify_job(inst, ("--max-order", str(max(HIGH_LABELS))))]
                new_probes = [verify_job(inst)]
        else:
            inst = corpus_instance(rng, i)
            if workload == "corpus-verify-form":
                new = [verify_job(inst)] + form_jobs(inst, twisted=True)
            else:
                new, new_probes = equiv_jobs(rng, inst, documents)
                new.insert(0, dual_job(inst))
        documents.update(inst.documents())
        jobs.extend(new)
        probes.extend(new_probes)
    for number, job in enumerate(jobs):
        job["id"] = number
    for number, job in enumerate(probes):
        job["id"] = f"p{number}"
    return documents, jobs, probes


# Failure signatures of the three defects known when the benchmark was
# written.  Their inputs are the probes, reported by class; a failure with
# any other signature, of a job or of a probe, is "unexplained" and makes a
# run incorrect.
KNOWN_DEFECTS = {
    "order-shortlist": "verify exits 3 on a correct diagram: the float "
                       "shortlist of classify_pair misses and the order "
                       "comes back None (large conductors)",
    "max-order": "verify exits 3 on a correct diagram with a label above "
                 "the default max_order of 60",
    "root2-defaults": "equiv --root2 alone builds the second job from the "
                      "default tree and geometric parameters, so an "
                      "equivalent pair with some alpha index != 1 reads "
                      "as distinct",
}


def check(job: dict, code, output: str) -> str | None:
    """None when the job gave its expected answer, else the failure class:
    a KNOWN_DEFECTS key or "unexplained"."""
    expect = job["expect"]
    try:
        document = json.loads(output) if code in (0, 3) else None
    except json.JSONDecodeError:
        return "unexplained"
    if code == expect["exit"] and _verdict_ok(expect, document):
        return None
    if job["kind"] == "verify" and code == 3 and _orders_unclassified(document):
        return "max-order" if job["max_label"] > 60 else "order-shortlist"
    if job["kind"] == "equiv-root" and code == 0 and job.get("nontrivial_alpha") \
            and document.get("verdict") == "distinct":
        return "root2-defaults"
    return "unexplained"


def _verdict_ok(expect: dict, document: dict) -> bool:
    if "passed" in expect and (document.get("passed") is not True
                               or document.get("commutant_dimension") != 1):
        return False
    if "verdict" in expect and document.get("verdict") != expect["verdict"]:
        return False
    if "invariance_verified_if_exists" in expect and document.get("exists") \
            and document.get("invariance_verified") is not True:
        return False
    if "chords_match_if_nondegenerate" in expect and not document.get("degenerate") \
            and document.get("chord_coefficients_match") is not True:
        return False
    return True


def _orders_unclassified(document: dict) -> bool:
    """Every failing pair check has no computed order, and the other verify
    checks hold."""
    failing = [c for c in document["good_morphism"]["checks"] if not c["passed"]]
    return bool(failing) and all(c["computed"] is None for c in failing) \
        and document["commutant_dimension"] == 1 \
        and all(r["char_poly_closed_form"] is not False
                for r in document["char_poly_checks"])
