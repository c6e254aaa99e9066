"""Run facts: results measured under different facts are never compared."""

import json

import pytest

from perfbench import compare, facts

BASE = {
    "usable_cores": 2,
    "blas_threads": {"libscipy_openblas64_.so": 2, "libscipy_openblas.so": 2},
    "thread_env": {},
    "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
    "backend": "numpy", "dtype": "float64",
    "git_sha": "aaaa", "src_digest": "1111",
}


def _with(**changes):
    out = dict(BASE)
    out.update(changes)
    return out


@pytest.mark.parametrize("changes", [
    {"usable_cores": 1},
    {"blas_threads": {"libscipy_openblas64_.so": 1,
                      "libscipy_openblas.so": 2}},
    {"thread_env": {"OPENBLAS_NUM_THREADS": "1"}},
    {"numpy": "2.3.0"},
    {"dtype": "float32"},
    {"backend": "torch"},
])
def test_refuses_when_facts_differ(changes):
    other = _with(**changes)
    assert facts.differences(BASE, other) == sorted(changes)
    with pytest.raises(facts.FactsDiffer):
        facts.check_comparable(BASE, other)


def test_program_identity_may_differ():
    other = _with(git_sha="bbbb", src_digest="2222")
    assert facts.differences(BASE, other) == []
    facts.check_comparable(BASE, other)


def _result(fact_set, value, workload="grid"):
    return {"workload": workload, "facts": fact_set,
            "metrics": {"p50_ms": {"value": value, "unit": "ms"}}}


def test_compare_refuses_unlike_results():
    base = [_result(BASE, 10.0), _result(BASE, 11.0)]
    change = [_result(_with(usable_cores=4, git_sha="bbbb"), 5.0)]
    with pytest.raises(facts.FactsDiffer):
        compare.compare(base, change)


def test_compare_reports_medians_of_like_results():
    base = [_result(BASE, v) for v in (10.0, 11.0, 12.0)]
    change = [_result(_with(git_sha="bbbb"), v) for v in (5.0, 6.0, 7.0)]
    (row,) = compare.compare(base, change)
    assert row[:6] == ("grid", "p50_ms", "ms", 11.0, 6.0, 6.0 / 11.0)


def test_compare_main_exits_2_on_unlike_facts(tmp_path):
    for side, fact_set in (("a", BASE), ("b", _with(usable_cores=1))):
        (tmp_path / side).mkdir()
        (tmp_path / side / "result-trace0.json").write_text(
            json.dumps(_result(fact_set, 1.0)))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2


def test_refuses_repro_environment():
    with pytest.raises(SystemExit):
        facts.refuse_repro_env({"REPRO_WORKERS": "2"})
    facts.refuse_repro_env({"OPENBLAS_NUM_THREADS": "1"})
