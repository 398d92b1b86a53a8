"""Runs at conductors in the thousands, end to end through the CLI: the
rank-2 diagram with m = 2003 (N = 4006, degree 1001), the triangle
m = (11, 8, 9), a rank-8 diagram at N = 1584 (degree 240), and the paths
labelled 3, 5, 7, 11 and 5, 7, 11, 13 at the composite N = 2310 (degree
240) and N = 10010 (degree 1440), with their verdicts and exit codes; that
no command calls minimal_poly_real_cyclotomic; that `verify` at m = 5003
(N = 10006, degree 2501) keeps no structure that grows as N times the
degree; and that `verify` and `dual` at N = 10010 and `verify` on the
path 3, 5, 7, 11, 13 (N = 30030, degree 2880) stay within traced-memory
bounds that a sparse fold table of every index to N/2 broke."""

import contextlib
import functools
import io
import json
import tracemalloc

import pytest

from coxrep import construction, cyclotomic
from coxrep import io as io_module
from coxrep.cli import main

TRIANGLE_1260 = [[1, 7, 10], [7, 1, 9], [10, 9, 1]]
TRIANGLE_1584 = [[1, 11, 9], [11, 1, 8], [9, 8, 1]]
RANK_2_2003 = [[1, 2003], [2003, 1]]
RANK_2_5003 = [[1, 5003], [5003, 1]]


def _path(*labels):
    """The path s1 - s2 - ... whose edges carry `labels`."""
    m = [[1 if i == j else 2 for j in range(len(labels) + 1)] for i in range(len(labels) + 1)]
    for i, label in enumerate(labels):
        m[i][i + 1] = m[i + 1][i] = label
    return m


PATH_2310 = _path(3, 5, 7, 11)
PATH_10010 = _path(5, 7, 11, 13)
PATH_30030 = _path(3, 5, 7, 11, 13)


def _rank_8_1584():
    """An 8-cycle labelled 8, 9, 11, 3, 3, 3, 3, 3, plus the edge s1-s5
    labelled 3."""
    m = [[1 if i == j else 2 for j in range(8)] for i in range(8)]
    labels = {(0, 1): 8, (1, 2): 9, (2, 3): 11, (3, 4): 3, (4, 5): 3, (5, 6): 3,
              (6, 7): 3, (7, 0): 3, (0, 4): 3}
    for (i, j), label in labels.items():
        m[i][j] = m[j][i] = label
    return m


def run_json(tmp_path, command, m, *extra):
    """Exit code and JSON document of one command on the diagram m, rooted
    at s1."""
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps({"m": m}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--diagram", str(path), "--root", "s1", "--format", "json",
                     *extra])
    return code, json.loads(out.getvalue())


def test_no_command_computes_psi_at_conductor_1260(tmp_path, monkeypatch):
    calls = []
    real = cyclotomic.minimal_poly_real_cyclotomic

    def spy(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(cyclotomic, "minimal_poly_real_cyclotomic", spy)
    # the commands build their context afresh, and the shared cache keeps
    # the contexts other tests hold
    fresh = functools.lru_cache(maxsize=None)(cyclotomic.FieldContext)
    monkeypatch.setattr(construction, "field_context", fresh)
    monkeypatch.setattr(io_module, "field_context", fresh)
    for command, extra in (("verify", ()), ("form", ()), ("dual", ()),
                           ("equiv", ("--root2", "s2"))):
        code, _ = run_json(tmp_path, command, TRIANGLE_1260, *extra)
        assert code == 0, command
    assert fresh.cache_info().currsize == 1 and fresh(1260).degree == 144
    assert calls == []


def _assert_verify(code, doc):
    assert code == 0 and doc["passed"] is True and doc["commutant_dimension"] == 1


def _assert_form(code, doc):
    assert code == 0 and doc["exists"] is True and doc["dimension"] == 1
    assert doc["invariance_verified"] is True and doc["diag_cartan_factorization"] is True


def _assert_dual(code, doc):
    assert code == 0 and doc["degenerate"] is False
    assert doc["chord_coefficients_match"] is True


@pytest.mark.slow
def test_rank_2_m_2003_verify(tmp_path):
    _assert_verify(*run_json(tmp_path, "verify", RANK_2_2003, "--max-order", "2003"))


def run_traced(tmp_path, monkeypatch, command, m, *extra):
    """run_json with the field context built afresh, inside a tracemalloc
    measurement; also returns the peak of traced memory."""
    fresh = functools.lru_cache(maxsize=None)(cyclotomic.FieldContext)
    monkeypatch.setattr(construction, "field_context", fresh)
    monkeypatch.setattr(io_module, "field_context", fresh)
    tracemalloc.start()
    try:
        code, doc = run_json(tmp_path, command, m, *extra)
        return code, doc, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.slow
def test_rank_2_m_5003_verify_memory(tmp_path, monkeypatch):
    # one coefficient per pair is classified; a table of every cosine of
    # the field, d coordinates each, took a 145.6 MB peak here
    code, doc, peak = run_traced(tmp_path, monkeypatch, "verify", RANK_2_5003,
                                 "--max-order", "5003")
    assert code == 0 and doc["passed"] is True
    assert peak < 16 * 2 ** 20, peak


@pytest.mark.slow
@pytest.mark.parametrize("command,check", [("verify", _assert_verify), ("form", _assert_form),
                                           ("dual", _assert_dual)])
def test_triangle_at_conductor_1584(tmp_path, command, check):
    check(*run_json(tmp_path, command, TRIANGLE_1584))


@pytest.mark.slow
@pytest.mark.parametrize("command,check", [("form", _assert_form), ("dual", _assert_dual)])
def test_rank_8_at_conductor_1584(tmp_path, command, check):
    check(*run_json(tmp_path, command, _rank_8_1584()))


def _assert_build(code, doc, conductor=2310):
    assert code == 0 and doc["conductor"] == conductor and doc["rank"] == 5


def _assert_equivalent(code, doc):
    assert code == 0 and doc["verdict"] == "equivalent"
    assert doc["intertwiner_integral"] is True and doc["inverse_integral"] is True


@pytest.mark.slow
@pytest.mark.parametrize("command,extra,check", [
    ("build", (), _assert_build), ("verify", (), _assert_verify), ("form", (), _assert_form),
    ("dual", (), _assert_dual), ("equiv", ("--root2", "s2"), _assert_equivalent)],
    ids=["build", "verify", "form", "dual", "equiv"])
def test_composite_path_at_conductor_2310(tmp_path, command, extra, check):
    check(*run_json(tmp_path, command, PATH_2310, *extra))


@pytest.mark.slow
@pytest.mark.parametrize("command,check", [
    ("build", functools.partial(_assert_build, conductor=10010)), ("verify", _assert_verify),
    ("form", _assert_form), ("dual", _assert_dual)], ids=["build", "verify", "form", "dual"])
def test_composite_path_at_conductor_10010(tmp_path, command, check):
    check(*run_json(tmp_path, command, PATH_10010))


# The fold table holds the packed rows of canonical indices, at most N/4:
# 1063 rows here.  A sparse table of every index to N/2 took traced peaks
# of 270 MB (verify) and 187 MB (dual)
@pytest.mark.slow
@pytest.mark.parametrize("command,check,bound_mb", [("verify", _assert_verify, 32),
                                                    ("dual", _assert_dual, 48)],
                         ids=["verify", "dual"])
def test_composite_path_at_conductor_10010_memory(tmp_path, monkeypatch, command, check,
                                                  bound_mb):
    code, doc, peak = run_traced(tmp_path, monkeypatch, command, PATH_10010)
    check(code, doc)
    assert peak < bound_mb * 2 ** 20, peak


@pytest.mark.slow
def test_composite_path_at_conductor_30030_verify_memory(tmp_path, monkeypatch):
    # the rows b_2880 to b_7507 are 4628 integers of 2880 8-byte slots,
    # 107 MB; the sparse table of every index to N/2 took 2.65 GB of
    # resident memory in one `verify` process
    code, doc, peak = run_traced(tmp_path, monkeypatch, "verify", PATH_30030)
    _assert_verify(code, doc)
    assert peak < 160 * 2 ** 20, peak
