"""Span recording, self time per layer and the layer wrappers."""

import json
import sys
import threading
import types

from perfbench import run
from perfbench.trace import LayerProbe, Tracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_nested_spans_and_self_time():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    table = tracer.layer_table()
    # outer runs 1..6, its children 2..3 and 4..5
    assert table["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert table["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    outer = next(s for s in tracer.spans if s[1] == "outer")
    assert all(s[4] == outer[0] for s in tracer.spans if s[1] == "inner")


def test_spans_from_another_thread_keep_their_own_id_and_parent():
    tracer = Tracer()
    work = tracer.wrap("work", lambda: None)
    thread = threading.Thread(target=work)
    tracer.wrap("main", lambda: (thread.start(), thread.join(5)))()
    assert not thread.is_alive()
    spans = {s[1]: s for s in tracer.spans}
    assert spans["work"][5] != spans["main"][5]
    assert spans["work"][4] is None  # not nested under the other thread


def test_request_ids_are_inherited_by_later_siblings():
    tracer = Tracer()
    child = tracer.wrap("child", lambda: None)
    opener = tracer.wrap("open", lambda i: None,
                         request=lambda args, kwargs: ("sample", args[0]))

    def fit():
        for i in range(2):
            opener(i)
            child()

    tracer.wrap("fit", fit)()
    rids = [(s[1], s[6]) for s in sorted(tracer.spans)]
    assert ("child", ("sample", 0)) in rids
    assert ("child", ("sample", 1)) in rids


def test_patch_and_unpatch_restore_module_and_class_attributes():
    module = types.ModuleType("perfbench_fake_mod")

    class Base:
        def hook(self):
            return "base"

    class Leaf(Base):
        def own(self):
            return "own"

    module.func = lambda: "func"
    module.Leaf = Leaf
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        original_func = module.func
        for target in ("perfbench_fake_mod:func",
                       "perfbench_fake_mod:Leaf.hook",
                       "perfbench_fake_mod:Leaf.own"):
            tracer.patch(target, lambda fn: tracer.wrap("x", fn))
        assert module.func() == "func" and Leaf().hook() == "base"
        assert Leaf().own() == "own"
        assert len(tracer.spans) == 3
        tracer.unpatch()
        assert module.func is original_func
        assert "hook" not in Leaf.__dict__  # inherited again, not copied
        assert Leaf.own.__name__ == "own"
    finally:
        del sys.modules[module.__name__]


def test_layer_probe_installs_and_removes_every_wrapper():
    import repro.core.pipeline as pipeline
    import repro.readout.ridge as ridge

    before = (pipeline.select_beta, ridge.fit_ridge_sweep)
    probe = LayerProbe(Tracer())
    probe.install()
    try:
        softmax_module = sys.modules["repro.readout.softmax"]
        assert hasattr(softmax_module.SoftmaxReadout.loss_and_grads,
                       "__wrapped__")
        assert hasattr(pipeline.select_beta, "__wrapped__")
    finally:
        probe.uninstall()
    assert (pipeline.select_beta, ridge.fit_ridge_sweep) == before


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {
        "grid", "train", "descent", "serve"}


def test_a_call_that_raises_still_records_its_span():
    tracer = Tracer(clock=FakeClock())

    def fail():
        raise RuntimeError("boom")

    try:
        tracer.wrap("fails", fail)()
    except RuntimeError:
        pass
    assert tracer.layer_table()["fails"]["calls"] == 1
    assert tracer._stack() == []
