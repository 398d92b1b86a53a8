"""Batch command line front end.

    coxrep build  --diagram F --root S [--tree F] [--params F] [--format ...]
    coxrep verify --diagram F --root S [--tree F] [--params F] [--max-order K]
    coxrep form   --diagram F --root S [--theta J] [...]
    coxrep equiv  --diagram F --root S [--root2 S] [--tree2 F] [--params2 F] [...]
    coxrep dual   --diagram F --root S [...]

--diagram takes a path or the name of a bundled example (a3, b3, bc3, h3,
affine_triangle, k4).  Exit codes: 0 success, 2 input validation, 3
verification failure, 4 internal consistency error.  Pair orders are
classified exactly; verify's optional --max-order (at least 3) caps them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources
from json.encoder import encode_basestring_ascii

from . import io as cio
from . import linalg
from .analysis import (
    EquivalenceViolation,
    OrderMismatch,
    characters_distinguish,
    commutant_dimension,
    verify_good_morphism,
)
from .construction import build, cartan_matrix
from .cyclotomic import FieldElement, NotCoprime
from .forms import (
    AdaptedBasisMismatch,
    Automorphism,
    build_form,
    dual_chord_coefficients_match,
    dual_representation,
    form_exists,
    form_space_dimension,
    gram_cartan_relation,
    gram_intertwines,
)
from .graph import spanning_tree

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4

BUNDLED = ("a3", "b3", "bc3", "h3", "affine_triangle", "k4")
_JSON_FLOAT_WORDS = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _resolve_diagram(spec: str):
    if spec in BUNDLED:
        ref = resources.files("coxrep.data").joinpath(f"{spec}.json")
        return cio.diagram_from_json(json.loads(ref.read_text()))
    if not os.path.exists(spec):
        raise CliError(f"no such diagram file or bundled name: {spec}")
    try:
        return cio.load_diagram(spec)
    except (cio.InputError, ValueError, json.JSONDecodeError, OSError) as exc:
        raise CliError(f"bad diagram: {exc}") from exc


def _job_rep(args, first=None):
    """The first job's representation, or, given it, that of `equiv`'s
    second job: on the first job's diagram, each option defaults to the
    first job's value, and without a tree file the first job's tree is
    re-rooted at --root2."""
    suffix = "" if first is None else "2"
    def option(name):
        return getattr(args, name + suffix, None) or getattr(args, name)

    diagram = _resolve_diagram(args.diagram) if first is None else first.diagram
    try:
        root = diagram.vertex_index(option("root"))
    except KeyError as exc:
        raise CliError(exc.args[0]) from exc
    tree_path = option("tree")
    try:
        if tree_path:
            with open(tree_path) as fh:
                tree = cio.tree_from_json(diagram, root, json.load(fh))
        elif first is not None:
            tree = first.tree.with_root(root)
        else:
            tree = spanning_tree(diagram, root)
        params = cio.load_params(tree, option("params"))
        return build(tree, params)
    except (cio.InputError, ValueError, json.JSONDecodeError, OSError) as exc:
        raise CliError(f"bad job input: {exc}") from exc


def _emit(args, document: dict, text) -> None:
    """Write the text that `text()` renders, or the document: exactly the
    bytes of `json.dumps(document, indent=2)`, with each FieldElement in it
    written as its `io.scalar_to_json` record.  Only the format written is
    rendered."""
    sys.stdout.write((_json_text(document) if args.format == "json" else text()) + "\n")


def _json_text(value, indent: str = "\n", records: dict | None = None) -> str:
    """`json.dumps(value, indent=2)`, which would use CPython's pure-Python
    encoder; `indent` is the newline and indentation of the enclosing level.
    A FieldElement is written as the text of its `io.scalar_to_json` record.
    `records`, made by the top-level call and dropped when it returns, holds
    that text by (context, num, den, indent), so each distinct element is
    made into a record once per document."""
    if records is None:
        records = {}
    if type(value) is FieldElement:
        key = (value.ctx, value.num, value.den, indent)
        text = records.get(key)
        if text is None:
            text = records[key] = _json_text(cio.scalar_to_json(value), indent, records)
        return text
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_FLOAT_WORDS.get(text, text)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner, records)
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    items = [_json_text(v, inner, records) for v in value]
    return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"


def _matrix_text(m) -> str:
    cells = [[str(x) for x in row] for row in m]
    width = max((len(c) for row in cells for c in row), default=1)
    return "\n".join("  [" + "  ".join(c.rjust(width) for c in row) + "]"
                     for row in cells)


def cmd_build(args) -> int:
    rep = _job_rep(args)
    data = cartan_matrix(rep)
    document = cio.rep_to_json(rep)
    document["cartan"] = data.entries
    document["discriminant"] = data.discriminant

    def text():
        lines = [str(rep), f"conductor N = {rep.ctx.N}",
                 "Cartan matrix:", _matrix_text(data.entries),
                 f"discriminant = {data.discriminant}"]
        for s in range(rep.rank):
            lines.append(f"generator {rep.diagram.labels[s]}:")
            lines.append(_matrix_text(rep.generators[s]))
        return "\n".join(lines)

    _emit(args, document, text)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.max_order is not None and args.max_order < 3:
        raise CliError("--max-order must be at least 3")
    rep = _job_rep(args)
    report = verify_good_morphism(rep, max_order=args.max_order)
    pair_records = [{
        "pair": [rep.diagram.labels[check.s], rep.diagram.labels[check.t]],
        "char_poly_closed_form": check.analysis and check.analysis.closed_form_matches,
    } for check in report.checks if check.s != check.t]
    dim, route = commutant_dimension(rep)
    passed = report.passed and dim == 1
    document = {
        "passed": passed,
        "good_morphism": report.as_dict(),
        "char_poly_checks": pair_records,
        "commutant_dimension": dim,
        "commutant_route": route,
    }

    def text():
        lines = [f"good morphism: {'pass' if report.passed else 'FAIL'}"]
        for check in report.checks:
            labels = rep.diagram.labels
            lines.append(f"  {labels[check.s]},{labels[check.t]}: expected "
                         f"{check.expected}, computed {check.computed}"
                         f" -> {'ok' if check.passed else 'FAIL'}")
        # product_analysis raises on a closed-form mismatch, so this always passes
        lines.append("char poly closed form: pass")
        lines.append(f"commutant dimension: {dim}")
        lines.append(f"commutant route: {route}")
        return "\n".join(lines)

    _emit(args, document, text)
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_form(args) -> int:
    rep = _job_rep(args)
    try:
        theta = Automorphism.from_index(rep.ctx, args.theta)
    except NotCoprime as exc:
        raise CliError(str(exc)) from exc
    existence = form_exists(rep, theta)
    gram = build_form(rep, theta, existence) if existence else None
    # the dimension's witness and invariance_verified share one exact check
    intertwined = gram is not None and gram_intertwines(rep, gram)
    dimension, route = form_space_dimension(rep, theta, intertwined)
    document = {
        "theta": theta.index,
        "exists": bool(existence),
        "obstruction": existence.obstruction,
        "obstruction_detail": list(existence.detail) if existence.detail else None,
        "dimension": dimension,
        "dimension_route": route,
    }
    if existence:
        invariant = gram.is_theta_hermitian() and intertwined
        document["gram"] = gram.entries
        document["invariance_verified"] = invariant
        if theta.is_identity:
            factorized = gram_cartan_relation(rep, gram)
            document["diag_cartan_factorization"] = factorized
        if not invariant:
            raise CliError("constructed form failed invariance", EXIT_INTERNAL)
    if bool(existence) != (dimension == 1):
        raise CliError("form criterion and nullspace dimension disagree",
                       EXIT_INTERNAL)

    def text():
        lines = [f"theta = galois index {theta.index}",
                 f"invariant form exists: {bool(existence)} (dimension {dimension})",
                 f"dimension route: {route}"]
        if existence:
            lines.append("Gram matrix (root diagonal normalized to 2):")
            lines.append(_matrix_text(gram.entries))
            lines.append(f"invariance verified: {invariant}")
            if theta.is_identity:
                lines.append(f"diag * Cartan factorization: {factorized}")
        else:
            lines.append(f"obstruction: {existence.obstruction} at {existence.detail}")
        return "\n".join(lines)

    _emit(args, document, text)
    return EXIT_OK


def cmd_equiv(args) -> int:
    rep1 = _job_rep(args)
    rep2 = _job_rep(args, first=rep1)
    verdict = characters_distinguish(rep1, rep2)
    if verdict.kind == "distinct":
        labels = rep1.diagram.labels
        word = [labels[s] for s in verdict.word]
        t1, t2 = verdict.traces
        document = {
            "verdict": "distinct",
            "separating_word": word,
            "traces": [t1, t2],
        }

        def text():
            return "\n".join(["verdict: distinct", f"separating word: {' '.join(word)}",
                              f"traces: {t1}  vs  {t2}"])
    elif verdict.kind == "equivalent":
        g = _normalize_integral(verdict.intertwiner)
        ginv = _diagonal_inverse(g)
        integral = all(x.is_integral() for row in g for x in row)
        inv_integral = all(x.is_integral() for row in ginv for x in row)
        document = {
            "verdict": "equivalent",
            "intertwiner": g,
            "intertwiner_inverse": ginv,
            "intertwiner_integral": integral,
            "inverse_integral": inv_integral,
        }

        def text():
            return "\n".join(["verdict: equivalent", "intertwiner g:", _matrix_text(g),
                              f"g integral: {integral}; g^-1 integral: {inv_integral}"])
    else:
        document = {"verdict": "inconclusive"}

        def text():
            return "verdict: inconclusive"
    _emit(args, document, text)
    return EXIT_OK


def _normalize_integral(g):
    """Scale an intertwiner to primitive integral form, its first nonzero
    entry with a positive leading coordinate."""
    g = linalg.mat_scale(g, linalg.primitive_factor(x for row in g for x in row))
    lead = next((x for row in g for x in row if not x.is_zero()), None)
    if lead is not None and lead.num[lead.effective_degree] < 0:
        return linalg.mat_scale(g, -1)
    return g


def _diagonal_inverse(g):
    """The inverse of a diagonal matrix, such as the intertwiner of
    construction.equivalence_intertwiner: one field inversion per entry."""
    return [[x.invert() if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(g)]


def cmd_dual(args) -> int:
    rep = _job_rep(args)
    dual = dual_representation(rep)
    adapted_rank = dual.adapted_rank()
    document = {
        "discriminant": dual.discriminant,
        "degenerate": dual.degenerate,
        "dual_generators": dict(zip(rep.diagram.labels, dual.dual_generators)),
        "adapted_row_rank": adapted_rank,
    }
    if not dual.degenerate:
        document["adapted_generators"] = dict(zip(rep.diagram.labels,
                                                  dual.adapted_generators))
        chords_ok = dual_chord_coefficients_match(dual)
        document["chord_coefficients_match"] = chords_ok
        if not chords_ok:
            raise CliError("dual chord coefficients disagree with the formula",
                           EXIT_INTERNAL)

    def text():
        lines = [f"discriminant = {dual.discriminant}",
                 f"degenerate: {dual.degenerate}",
                 f"adapted row rank: {adapted_rank} of {rep.rank}"]
        if not dual.degenerate:
            lines.append(f"chord coefficient formula: {chords_ok}")
        return "\n".join(lines)

    _emit(args, document, text)
    return EXIT_OK


def _add_job_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--diagram", required=True,
                        help="diagram JSON path or bundled name "
                             f"({', '.join(BUNDLED)})")
    parser.add_argument("--root", required=True, help="root vertex label")
    parser.add_argument("--tree", help="spanning tree JSON (edge list) path")
    parser.add_argument("--params", help="parameter JSON path")
    parser.add_argument("--format", choices=("json", "text"), default="text")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """Built once per process: `parse_args` returns a fresh namespace and argparse
    looks up sys.stdout/sys.stderr when it prints, so no call sees another's state."""
    parser = argparse.ArgumentParser(
        prog="coxrep",
        description="exact reflection representations of 2-spherical "
                    "Coxeter systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("build", "verify", "form", "equiv", "dual"):
        p = sub.add_parser(name)
        _add_job_arguments(p)
        if name == "verify":
            p.add_argument("--max-order", type=int,
                           help="optional cap: a pair order above it fails "
                                "verification (at least 3; default no cap)")
        if name == "form":
            p.add_argument("--theta", type=int, default=1,
                           help="galois index of the twisting automorphism")
        if name == "equiv":
            p.add_argument("--root2", help="second root (defaults to first)")
            p.add_argument("--tree2", help="second tree file (defaults to first)")
            p.add_argument("--params2", help="second parameter file (defaults to first)")
    return parser


COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "form": cmd_form,
    "equiv": cmd_equiv,
    "dual": cmd_dual,
}


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (OrderMismatch, EquivalenceViolation, AdaptedBasisMismatch) as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:  # str() of an output integer; the limit is process-wide
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: an output integer has more than {sys.get_int_max_str_digits()} "
              "digits", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
