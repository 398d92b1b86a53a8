"""Command output: the JSON writer against `json.dumps`, field elements
written as their records once per document, one parser reused by every
`main` call, the help and argparse error bytes, and scalars or integers
that leave the float or str range."""

import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from coxrep import cli
from coxrep import io as cio
from coxrep.cyclotomic import FieldElement, field_context

HELP_AND_ERRORS = Path(__file__).parent / "data" / "cli_help_errors.json"
TRIANGLE = {"rank": 3, "m": [[1, 5, 5], [5, 1, 5], [5, 5, 1]]}


def call(capsys, argv):
    """Exit code, stdout and stderr of one `main` call, argparse exits included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- the JSON writer ------------------------------------------------------------

_text = st.text() | st.sampled_from(
    ["", "\"", "\\", "\x00\x1f\x7f", "é ü ß", " ", "\U0001f600", "\ud800"])
_scalars = (
    st.none() | st.booleans() | _text
    | st.integers() | st.sampled_from([10**400, -10**400, 2**63, -2**63 - 1])
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                       math.inf, -math.inf, math.nan]))
_documents = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(value=_documents)
def test_json_writer_gives_the_bytes_of_json_dumps_indent_2(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


# field elements at several conductors, 1260 among them, with coordinates
# drawn once and put in up to three fields of one degree, so that equal
# (num, den) occur at different conductors, where their "approx" differs
_SAME_DEGREE = ((1, 3, 4), (5, 8, 10, 12), (7, 9, 14), (15, 16, 30), (1008, 1260))
_big = st.integers(-3, 3) | st.integers(-10 ** 40, 10 ** 40)


@st.composite
def _element_pool(draw):
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        coords = draw(st.dictionaries(st.integers(0, 200), _big, max_size=3))
        den = draw(st.integers(1, 3) | st.integers(1, 10 ** 40))
        conductors = draw(st.sampled_from(_SAME_DEGREE))
        for n in draw(st.lists(st.sampled_from(conductors), min_size=1, max_size=3,
                               unique=True)):
            ctx = field_context(n)
            num = [0] * ctx.degree
            for i, v in coords.items():
                num[i % ctx.degree] += v
            pool.append(FieldElement(ctx, num, den))
    return pool


@st.composite
def _documents_with_elements(draw):
    """Documents whose leaves include elements of one pool: the same object,
    or an equal value in a distinct object, at any depth, next to plain
    dicts, among them the records of pool elements themselves."""
    pool = draw(_element_pool())
    same_or_equal = st.sampled_from(pool).flatmap(
        lambda x: st.sampled_from([x, FieldElement(x.ctx, x.num, x.den)]))
    leaves = same_or_equal | st.sampled_from(pool).map(cio.scalar_to_json) | _scalars
    return draw(st.recursive(
        leaves,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.lists(inner, max_size=3).map(tuple)
                       | st.dictionaries(_text, inner, max_size=4)),
        max_leaves=25))


def _as_records(value):
    if isinstance(value, FieldElement):
        return cio.scalar_to_json(value)
    if isinstance(value, dict):
        return {k: _as_records(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_records(v) for v in value]
    return value


_C5, _C12 = field_context(5).generator, field_context(12).generator


@settings(max_examples=200, deadline=None)
@given(value=_documents_with_elements())
@example(value=[_C5, _C12, [_C5, -(-_C5)], {"c": _C5}])
def test_json_writer_writes_field_elements_as_their_records(value):
    assert cli._json_text(value) == json.dumps(_as_records(value), indent=2)


def _records(value, depth=0):
    """The (num, den, depth) of every scalar record in a parsed document."""
    if isinstance(value, dict) and set(value) == {"num", "den", "approx"}:
        return [(tuple(value["num"]), value["den"], depth)]
    children = value.values() if isinstance(value, dict) else \
        value if isinstance(value, list) else ()
    return [r for v in children for r in _records(v, depth + 1)]


@pytest.mark.parametrize("command", ["dual", "build"])
@pytest.mark.parametrize("diagram", cli.BUNDLED)
def test_one_record_per_distinct_element_and_indentation(capsys, monkeypatch,
                                                         command, diagram):
    made = []
    scalar_to_json = cio.scalar_to_json
    monkeypatch.setattr(cio, "scalar_to_json", lambda x: made.append(x) or scalar_to_json(x))
    code, out, err = call(capsys, [command, "--diagram", diagram, "--root", "s1",
                                   "--format", "json"])
    assert (code, err) == (0, "")
    records = _records(json.loads(out))
    assert len(made) == len(set(records)) < len(records)


@pytest.mark.parametrize("argv", [["build"], ["verify"], ["form", "--theta", "1"],
                                  ["form", "--theta", "11"], ["dual"],
                                  ["equiv", "--root2", "s2"], ["equiv", "--root2", "s1"]])
def test_a_json_job_renders_no_text(capsys, monkeypatch, argv):
    """The text lines, and the power-basis strings of their elements, are
    made only under --format text (verify's text holds no element)."""
    rendered = []
    for owner, name in ((FieldElement, "__str__"), (cli, "_matrix_text")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name:
                            rendered.append(name) or real(*a))
    base = [*argv, "--diagram", "h3", "--root", "s1", "--format"]
    code, out, _ = call(capsys, base + ["json"])
    assert code == 0 and json.loads(out) and rendered == []
    code, out, _ = call(capsys, base + ["text"])
    assert code == 0 and bool(rendered) == (argv[0] != "verify")


def test_json_writer_refuses_what_json_dumps_refuses():
    for value in ({1, 2}, object(), {"a": [range(2)]}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            cli._json_text(value)


# -- one parser per process ---------------------------------------------------------

SEQUENCE = [
    ["form", "--diagram", "h3", "--root", "s1", "--theta", "3"],
    ["form", "--diagram", "h3", "--root", "s1", "--format", "json"],
    ["form", "--diagram", "h3", "--root", "s1", "--theta", "7"],
    ["form", "--diagram", "h3", "--root", "s1"],
    ["equiv", "--diagram", "b3", "--root", "s1", "--root2", "s2"],
    ["equiv", "--diagram", "b3", "--root", "s1"],
    ["verify", "--diagram", "a3", "--root", "s1", "--max-order", "5"],
    ["verify", "--diagram", "a3", "--root", "s1"],
    ["--help"],
    ["verify", "--help"],
    ["nosuch"],
    ["verify", "--diagram", "a3"],
    ["form", "--diagram", "h3", "--root", "s1", "--theta", "x"],
    ["build", "--diagram", "a3", "--root", "s1", "--format", "yaml"],
    ["build", "--diagram", "a3", "--root", "s1"],
]


def test_make_parser_is_built_once():
    assert cli.make_parser() is cli.make_parser()


def test_reused_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    reused = [call(capsys, argv) for argv in SEQUENCE]
    monkeypatch.setattr(cli, "make_parser", cli.make_parser.__wrapped__)
    fresh = [call(capsys, argv) for argv in SEQUENCE]
    for argv, got, expected in zip(SEQUENCE, reused, fresh):
        assert got == expected, argv


def test_help_and_argparse_errors_keep_their_bytes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for record in json.loads(HELP_AND_ERRORS.read_text()):
        assert call(capsys, record["argv"]) == \
            (record["code"], record["stdout"], record["stderr"]), record["argv"]


# -- scalars and integers out of range ----------------------------------------------

def _triangle_job(tmp_path, chord):
    diagram, params = tmp_path / "triangle.json", tmp_path / "params.json"
    diagram.write_text(json.dumps(TRIANGLE))
    params.write_text(json.dumps({"chords": {"s2-s3": chord}}))
    return ["--diagram", str(diagram), "--root", "s1", "--params", str(params)]


@pytest.mark.parametrize("chord", ["1e400", "-1e400", {"num": [0, 10**400], "den": 1}])
@pytest.mark.parametrize("command", ["build", "dual"])
def test_scalar_beyond_the_float_range_prints_infinity(capsys, tmp_path, command,
                                                       chord):
    job = [command, *_triangle_job(tmp_path, chord)]
    code, out, err = call(capsys, job + ["--format", "json"])
    assert code == 0 and err == ""
    assert '"approx": Infinity' in out or '"approx": -Infinity' in out
    assert json.loads(out)
    code, out, err = call(capsys, job + ["--format", "text"])
    assert code == 0 and err == "" and out


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", ["build", "dual"])
def test_output_integer_beyond_the_str_limit_exit_2(capsys, tmp_path, command, fmt):
    # 2201 digits are read; the products of two such coordinates have more
    # than the 4300 digits str() allows by default
    job = _triangle_job(tmp_path, {"num": [0, 10**2200], "den": 1})
    code, out, err = call(capsys, [command, *job, "--format", fmt])
    assert code == 2 and out == ""
    limit = sys.get_int_max_str_digits()
    assert err == f"error: an output integer has more than {limit} digits\n"


@pytest.mark.parametrize("theta", ["99999999999999999999999", "-3", "33"])
def test_theta_error_names_the_index_given(capsys, theta):
    code, out, err = call(capsys, ["form", "--diagram", "h3", "--root", "s1",
                                   "--theta", theta])
    assert (code, out) == (2, "")
    assert err == f"error: index {theta} not coprime to conductor 30\n"
