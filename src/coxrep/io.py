"""JSON schemas for diagrams, parameters, scalars and matrices.

Exact scalars serialize as rational coordinate vectors over a denominator
in the power basis of c = 2cos(2pi/N), with the conductor carried in the
enclosing document.  Records keep the power basis; field elements compute
in the cosine basis and are converted at this boundary only
(`FieldElement.power_num` out, `FieldContext.from_coeffs` in).  An
"approx" float, the nearest float to the value (`float(x)`, +-inf beyond
the float range), is attached for human readability but never parsed
back.  `scalar_to_json` makes that record.  The CLI's documents, `rep_to_json` and
`params_to_json` among them, hold field elements as they are, and
`cli._json_text` makes each distinct one into a record once per document;
a parameter file is written through it too.  `matrix_to_json` makes the
records itself, for documents built outside the CLI.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .construction import (
    ParameterSystem,
    ReflectionRep,
    conductor_for,
    geometric_parameters,
)
from .cyclotomic import FieldContext, FieldElement, field_context
from .graph import Diagram, SpanningTree, spanning_tree_from_edges, validate


class InputError(ValueError):
    """Malformed input document."""


def scalar_to_json(x: FieldElement) -> dict:
    return {
        "num": list(x.power_num[:len(x.num)]),
        "den": x.den,
        "approx": float(x),
    }


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _fraction_from(value: Any) -> Fraction:
    """A rational from an int or a literal `Fraction` accepts.  A literal
    whose numerator or denominator would pass Python's str-conversion digit
    limit is refused, as `json.load` refuses such an integer, and so, before
    `Fraction` builds the power of ten, is one whose decimal exponent passes
    the limit by more than its length (were it nonzero, it would pass too)."""
    if isinstance(value, bool):
        raise InputError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise InputError(f"cannot read a rational from {value!r}")
    limit = sys.get_int_max_str_digits()
    exponent = value.lower().partition("e")[2]
    try:
        too_long = bool(limit and exponent) and abs(int(exponent)) > limit + len(value)
        x = None if too_long else Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {value!r}") from exc
    if x is None or limit and max(abs(x.numerator), x.denominator) >= 10 ** limit:
        raise InputError(f"rational literal {value!r} has more than {limit} digits")
    return x


def scalar_from_json(ctx: FieldContext, obj: Any) -> FieldElement:
    """Scalar from an int, a "p/q" string, a coefficient list, or a
    {"num": [...], "den": d} record (power-basis coordinates)."""
    if isinstance(obj, Mapping):
        num = obj.get("num")
        den = obj.get("den", 1)
        if not isinstance(num, Sequence) or isinstance(num, str):
            raise InputError('scalar record needs a "num" list')
        den = _fraction_from(den)
        if den == 0:
            raise InputError("scalar record has a zero denominator")
        return ctx.from_coeffs([_fraction_from(v) / den for v in num])
    if isinstance(obj, Sequence) and not isinstance(obj, str):
        return ctx.from_coeffs([_fraction_from(v) for v in obj])
    return ctx.from_rational(_fraction_from(obj))


def matrix_to_json(m) -> list:
    return [[scalar_to_json(x) for x in row] for row in m]


def diagram_from_json(obj: Any) -> Diagram:
    if not isinstance(obj, Mapping) or "m" not in obj:
        raise InputError('diagram document needs an "m" matrix')
    rows = obj["m"]
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(map(_is_integer, row)) for row in rows):
        raise InputError('"m" must be a list of rows of integers')
    rank = obj.get("rank", len(rows))
    if not _is_integer(rank) or rank != len(rows):
        raise InputError(f"declared rank does not match the matrix ({rank!r})")
    labels = obj.get("labels")
    if labels is not None and not (
            isinstance(labels, list) and all(isinstance(v, str) for v in labels)):
        raise InputError('"labels" must be a list of strings')
    for label in labels or ():
        if "-" in label:
            raise InputError(f"label {label!r} contains '-', which parameter keys "
                             "('label-label') use to separate the two labels")
    return validate(rows, labels=labels)


def load_diagram(path: str) -> Diagram:
    with open(path) as fh:
        return diagram_from_json(json.load(fh))


def _vertex(diagram: Diagram, v: Any) -> int:
    """Vertex index from a label or an in-range integer index."""
    if isinstance(v, str):
        try:
            return diagram.vertex_index(v)
        except KeyError as exc:
            raise InputError(exc.args[0]) from exc
    if _is_integer(v) and 0 <= v < diagram.rank:
        return v
    raise InputError(f"bad vertex {v!r}: expected a label or an index below "
                     f"{diagram.rank}")


def tree_from_json(diagram: Diagram, root: int, obj: Any) -> SpanningTree:
    if not isinstance(obj, Mapping) or not isinstance(obj.get("edges"), list):
        raise InputError('tree document needs an "edges" list')
    edges = []
    for pair in obj["edges"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputError(f"bad edge {pair!r}")
        edges.append((_vertex(diagram, pair[0]), _vertex(diagram, pair[1])))
    try:
        return spanning_tree_from_edges(diagram, root, edges)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _edge_from_key(diagram: Diagram, key: str, seen: dict) -> tuple[int, int]:
    """The edge (s, t), s < t, the key names in either order; `seen` maps the
    edges read so far to their keys, and a second key for one is refused."""
    parts = key.split("-")
    if len(parts) != 2:
        raise InputError(f"bad edge key {key!r}; expected 'label-label'")
    s, t = sorted(_vertex(diagram, p) for p in parts)
    if not diagram.is_edge(s, t):
        raise InputError(f"{key!r} is not an edge of the diagram")
    if (s, t) in seen:
        raise InputError(f"{key!r} names the same edge as {seen[s, t]!r}")
    seen[s, t] = key
    return s, t


def params_from_json(tree: SpanningTree, obj: Any) -> ParameterSystem:
    """Parameter system from {"alpha": {...}, "chords": {...}}; entries not
    present fall back to the geometric values, and only the chords the
    document leaves out are given geometric scalars."""
    diagram = tree.diagram
    if obj is None:
        return geometric_parameters(tree)
    if not isinstance(obj, Mapping):
        raise InputError("parameter document must be an object")
    alpha, chords = ({} if obj.get(k) is None else obj[k] for k in ("alpha", "chords"))
    if not isinstance(alpha, Mapping) or not isinstance(chords, Mapping):
        raise InputError('"alpha" and "chords" must be objects')
    alpha_index, alpha_keys, chord_keys = {}, {}, {}
    for key, k in alpha.items():
        edge = _edge_from_key(diagram, key, alpha_keys)
        if not _is_integer(k):
            raise InputError(f"alpha index for {key!r} must be an integer")
        alpha_index[edge] = k
    ctx = field_context(conductor_for(diagram))
    chord_l = {}
    for key, spec in chords.items():
        edge = _edge_from_key(diagram, key, chord_keys)
        if edge not in tree.chords:
            raise InputError(f"{key!r} is not a chord of the chosen tree")
        chord_l[edge] = scalar_from_json(ctx, spec)
    params = geometric_parameters(tree, chord_l)
    return ParameterSystem(diagram, {**params.alpha_index, **alpha_index}, params.chord_l)


def load_params(tree: SpanningTree, path: str | None) -> ParameterSystem:
    if path is None:
        return geometric_parameters(tree)
    with open(path) as fh:
        return params_from_json(tree, json.load(fh))


def params_to_json(params: ParameterSystem) -> dict:
    """The parameter document, its chord scalars left as field elements."""
    labels = params.diagram.labels
    alpha = {f"{labels[s]}-{labels[t]}": k
             for (s, t), k in sorted(params.alpha_index.items())}
    chords = {f"{labels[s]}-{labels[t]}": l
              for (s, t), l in sorted(params.chord_l.items())}
    return {"alpha": alpha, "chords": chords}


def rep_to_json(rep: ReflectionRep) -> dict:
    """The representation's document, its scalars left as field elements
    for `cli._json_text` to write."""
    labels = rep.diagram.labels
    return {
        "conductor": rep.ctx.N,
        "rank": rep.rank,
        "basis": list(labels),
        "root": labels[rep.root],
        "tree_edges": [[labels[s], labels[t]]
                       for s, t in sorted(rep.tree.tree_edges)],
        "chords": [[labels[s], labels[t]] for s, t in rep.tree.chords],
        "parameters": params_to_json(rep.params),
        "generators": dict(zip(labels, rep.generators)),
    }
