"""A seeded sweep of valid inputs through the command line.

A build from admissible alpha indices and nonzero chord scalars is a good
morphism, so on every draw:
- `build` exits 0;
- `verify` passes, with commutant dimension 1;
- `form` exits 0 for theta = 1 and for the first nontrivial involution;
- `dual` exits 0, and its chord coefficients match unless it is degenerate;
- `equiv` against the same representation rooted elsewhere (the target of
  construction.root_change_intertwiner, written as a tree and a parameter
  document) says "equivalent", and against one alpha index changed says
  "distinct".
Every command runs in process through `cli.main` with `--format json`; each
must exit 0, so none exits 3 or 4, and none may raise or write to stderr.

A draw is a connected diagram of rank 3 to 8 with labels from LABELS and
conductor at most MAX_CONDUCTOR, a random spanning tree and root, random
admissible alpha indices, and chord scalars that are small fractions,
large integers, negative, or irrational power-basis records
{"num": [a, b], "den": d}.  The 24 draws take about 67 s on a 2-core
x86-64 VM, 66 s of it in draws 0, 16 and 18, whose discriminant and chord
inversions are slow at these sizes (ROADMAP item 6); the other draws take
about 0.06 s each.
"""

import json
import random

import pytest

from conftest import _random_tree
from coxrep import io as cio
from coxrep.cartanpoly import admissible_root_indices
from coxrep.cli import _json_text, main
from coxrep.construction import build, conductor_for, root_change_intertwiner
from coxrep.forms import involutive_automorphisms
from coxrep.graph import validate

SEED = 29
DRAWS = 24
LABELS = (3, 4, 5, 6, 7, 8, 9, 10, 12)
MAX_CONDUCTOR = 2520


def _chord_scalar(rng: random.Random):
    """A nonzero chord scalar document: a fraction, a large integer, a
    negative value or sign * (a + b c) / d with a, b > 0 (c = 2cos(2pi/N) is
    positive for the conductors N >= 6 of these diagrams)."""
    kind = rng.choice(["fraction", "large", "negative", "irrational"])
    if kind == "fraction":
        return f"{rng.randint(1, 99)}/{rng.randint(1, 99)}"
    if kind == "large":
        return rng.randint(10 ** 20, 10 ** 30)
    if kind == "negative":
        return f"-{rng.randint(1, 10 ** 6)}/{rng.randint(1, 97)}"
    sign = rng.choice([1, -1])
    return {"num": [sign * rng.randint(1, 10 ** 4), sign * rng.randint(1, 10 ** 4)],
            "den": rng.randint(1, 50)}


def draw(index: int) -> dict:
    """The documents of draw `index`: diagram, root, tree and parameters."""
    rng = random.Random(f"valid-sweep:{SEED}:{index}")
    while True:
        rank = rng.randint(3, 8)
        edges = {(rng.randrange(v), v) for v in range(1, rank)}
        others = [(s, t) for s in range(rank) for t in range(s + 1, rank)
                  if (s, t) not in edges]
        edges.update(rng.sample(others, rng.randint(0, min(len(others), rank - 1))))
        rows = [[1 if s == t else 2 for t in range(rank)] for s in range(rank)]
        for s, t in edges:
            rows[s][t] = rows[t][s] = rng.choice(LABELS)
        diagram = validate(rows)
        if conductor_for(diagram) <= MAX_CONDUCTOR:
            break
    tree = _random_tree(rng, diagram)
    labels = diagram.labels

    def key(edge):
        return f"{labels[edge[0]]}-{labels[edge[1]]}"

    alpha = {key(e): rng.choice(admissible_root_indices(diagram.edge_label(*e)))
             for e in diagram.edges}
    return {
        "rng": rng,
        "diagram": {"m": rows},
        "root": labels[tree.root],
        "tree": {"edges": [[labels[s], labels[t]] for s, t in sorted(tree.tree_edges)]},
        "params": {"alpha": alpha,
                   "chords": {key(e): _chord_scalar(rng) for e in tree.chords}},
    }


def jobs(case: dict, directory) -> list[tuple[list[str], str]]:
    """(argv, expectation) for each command of a draw, its documents
    written under `directory`."""
    rng = case["rng"]

    def write(name, text):
        path = directory / name
        path.write_text(text)
        return str(path)

    files = {name: write(f"{name}.json", json.dumps(case[name]))
             for name in ("diagram", "tree", "params")}
    job = ["--diagram", files["diagram"], "--root", case["root"], "--tree", files["tree"],
           "--params", files["params"], "--format", "json"]
    diagram = cio.diagram_from_json(case["diagram"])
    tree = cio.tree_from_json(diagram, diagram.vertex_index(case["root"]), case["tree"])
    rep = build(tree, cio.params_from_json(tree, case["params"]))
    thetas = [a.index for a in involutive_automorphisms(rep.ctx)[:2]]
    out = [(["build"] + job, "built"), (["verify"] + job, "passed")]
    out += [(["form", "--theta", str(j)] + job, "form") for j in thetas]
    out.append((["dual"] + job, "dual"))
    target = root_change_intertwiner(rep, rng.randrange(rep.rank)).target
    labels = diagram.labels
    moved = ["--root2", labels[target.root],
             "--tree2", write("tree2.json", json.dumps(
                 {"edges": [[labels[s], labels[t]] for s, t in sorted(target.tree.tree_edges)]})),
             "--params2", write("params2.json", _json_text(cio.params_to_json(target.params)))]
    out.append((["equiv"] + job + moved, "equivalent"))
    alpha = case["params"]["alpha"]
    choices = {f"{labels[s]}-{labels[t]}": admissible_root_indices(diagram.edge_label(s, t))
               for s, t in diagram.edges}
    changeable = sorted(k for k, indices in choices.items() if len(indices) > 1)
    if changeable:
        key = rng.choice(changeable)
        other = rng.choice([k for k in choices[key] if k != alpha[key]])
        params2 = {**case["params"], "alpha": {**alpha, key: other}}
        out.append((["equiv"] + job + ["--params2", write("params3.json", json.dumps(params2))],
                    "distinct"))
    return out


def check(expectation: str, document: dict) -> None:
    if expectation == "passed":
        assert document["passed"] is True and document["commutant_dimension"] == 1
    elif expectation == "form":
        assert document["dimension"] == int(document["exists"])
    elif expectation == "dual":
        assert document["degenerate"] or document["chord_coefficients_match"] is True
    elif expectation in ("equivalent", "distinct"):
        assert document["verdict"] == expectation


@pytest.mark.slow
@pytest.mark.parametrize("index", range(DRAWS))
def test_valid_draw(index, tmp_path, capsys):
    for argv, expectation in jobs(draw(index), tmp_path):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), argv
        check(expectation, json.loads(captured.out))
