"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import wl_concretize  # noqa: E402
import wl_install  # noqa: E402
import wl_service  # noqa: E402
from tracer import Tracer  # noqa: E402


# -- seeded inputs -----------------------------------------------------------
def concretize_inputs(seed, universe):
    generator, repo = universe
    stream = wl_concretize.RequestStream(seed, repo, generator)
    texts = [stream.next_request(wl_concretize.pinned_at(i)) for i in range(30)]
    return texts + stream.env_roots()


def service_inputs(seed):
    mix = wl_service.RequestMix(seed)
    return [mix.request(i) for i in range(300)]


@pytest.fixture(scope="module")
def universe():
    return wl_concretize.build_universe()


def test_concretize_inputs_follow_the_seed(universe):
    assert concretize_inputs(3, universe) == concretize_inputs(3, universe)
    assert concretize_inputs(3, universe) != concretize_inputs(4, universe)


def test_only_greedy_requests_carry_a_pin(universe):
    generator, repo = universe
    stream = wl_concretize.RequestStream(5, repo, generator)
    block = range(wl_concretize.ENV_EVERY - 2)
    for i in block:
        text = stream.next_request(wl_concretize.pinned_at(i))
        assert ("^" in text) == wl_concretize.pinned_at(i)
        if wl_concretize.variant_of(i) == "solver":
            assert "^" not in text
    assert sum(map(wl_concretize.pinned_at, block)) == 8


def test_install_inputs_follow_the_seed():
    draws = lambda seed: [wl_install.draw_pass(seed, k) for k in range(4)]  # noqa: E731
    assert draws(3) == draws(3)
    assert draws(3) != draws(4)
    for configs in draws(5):
        assert len(configs) == wl_install.CONFIGS


def test_service_inputs_follow_the_seed():
    assert service_inputs(3) == service_inputs(3)
    assert service_inputs(3) != service_inputs(4)


# -- failure classification ----------------------------------------------------
def test_typed_error_is_an_answer():
    from repro.core.concretizer import UnknownPackageError

    assert harness.classify(UnknownPackageError("nope")) == "UnknownPackageError"


def test_solver_limit_and_untyped_errors_fail():
    from repro.core.solver import SolverLimitError
    from repro.spec.spec import Spec

    with pytest.raises(harness.Failure) as caught:
        harness.classify(SolverLimitError(Spec("zlib"), 256))
    assert caught.value.kind == "SolverLimitError"
    with pytest.raises(harness.Failure) as caught:
        harness.classify(KeyError("x"))
    assert caught.value.kind == "KeyError"


def test_probe_counts_solver_limit_as_the_defect_not_a_failure(tmp_path, monkeypatch):
    from repro.core.solver import SolverLimitError
    from repro.spec.spec import Spec

    workload = wl_concretize.ConcretizeWorkload(1, str(tmp_path))
    workload.setup()
    tracer = Tracer()

    def budget_death(text, concretizer):
        raise SolverLimitError(Spec(text.split()[0]), 256)

    monkeypatch.setattr(workload.session, "concretize", budget_death)
    assert workload.probe(tracer) == {}
    assert workload.census == {
        "probe/solver-pinned/SolverLimitError": wl_concretize.PROBE_REQUESTS}
    assert not tracer.active and tracer.op is None

    def untyped(text, concretizer):
        raise KeyError(text)

    monkeypatch.setattr(workload.session, "concretize", untyped)
    assert workload.probe(tracer) == {"KeyError": wl_concretize.PROBE_REQUESTS}


def service_checker(scratch):
    workload = wl_service.ServiceWorkload(1, str(scratch))
    workload.typed = wl_service.typed_error_names()
    workload.answers = {}
    workload.op_labels = ["spack_spec"] * 4
    return workload


def test_service_typed_remote_error_is_an_answer(tmp_path):
    from repro.service import ServiceClientError

    workload = service_checker(tmp_path)
    workload.request = ("spack_spec", {"spec": "zlib ^nope"})
    error = ServiceClientError({"type": "UnknownPackageError", "message": "m"})
    assert workload.check(0, error) == "UnknownPackageError"


def test_service_transport_untyped_and_solver_limit_errors_fail(tmp_path):
    from repro.errors import ReproError
    from repro.service import ServiceClientError

    workload = service_checker(tmp_path)
    workload.request = ("spack_list", {})
    for outcome, kind in (
        (ConnectionResetError("reset"), "ConnectionResetError"),
        (ReproError("Service closed the connection mid-request"), "ReproError"),
        (ServiceClientError({"type": "KeyError", "message": "k"}), "KeyError"),
        (ServiceClientError({"type": "SolverLimitError", "message": "s"}),
         "SolverLimitError"),
    ):
        with pytest.raises(harness.Failure) as caught:
            workload.check(0, outcome)
        assert caught.value.kind == kind


def test_service_answer_mismatch_fails(tmp_path):
    workload = service_checker(tmp_path)
    workload.request = ("spack_spec", {"spec": "zlib"})
    assert workload.check(0, {"dag_hash": "aaaa"}) == "ok"
    with pytest.raises(harness.Failure) as caught:
        workload.check(1, {"dag_hash": "bbbb"})
    assert caught.value.kind == "AnswerMismatch" and caught.value.wrong


# -- tracing -------------------------------------------------------------------
def stored_boundaries():
    """{(module, class, attribute): the object stored there now}."""
    return {
        (module, cls, attr): layers._resolve(module, cls).__dict__[attr]
        for _, module, cls, attr, _, _, _, _ in layers.BOUNDARIES
    }


def test_timed_runs_see_the_unwrapped_functions(tmp_path):
    import concurrent.futures

    from repro.session import Session
    from repro.util.lock import Lock

    before = stored_boundaries()
    submit = concurrent.futures.ThreadPoolExecutor.__dict__["submit"]
    acquire = Lock.__dict__["acquire"]
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert stored_boundaries() != before
        session = Session.create(str(tmp_path / "s"))
        tracer.op = 1
        session.install("libelf", jobs=2)
    finally:
        tracer.restore()
    after = stored_boundaries()
    assert all(after[key] is before[key] for key in before)
    assert concurrent.futures.ThreadPoolExecutor.__dict__["submit"] is submit
    assert Lock.__dict__["acquire"] is acquire
    recorded = len(tracer.spans)
    assert recorded and any(s[3] == "session.install" for s in tracer.spans)
    session.install("libdwarf", jobs=2)
    assert len(tracer.spans) == recorded


def test_self_time_adds_up_with_aggregates(tmp_path):
    tracer = Tracer()
    tracer.active = True
    tracer.op = 7
    outer = tracer.enter("span", "outer")
    agg = tracer.enter("agg", "hot")
    inner = tracer.enter("span", "inner")
    tracer.exit(inner)
    tracer.exit(agg)
    tracer.exit(outer)
    path = tmp_path / "trace.json"
    tracer.write(str(path))
    with open(path) as f:
        trace = json.load(f)
    from repro.telemetry.analysis import TraceAnalysis

    analysis = TraceAnalysis(trace["records"])
    rollup = analysis.self_time_rollup()
    total = sum(row["self_s"] for row in rollup.values())
    root = analysis.roots[0]
    assert root.name == "outer"
    assert total == pytest.approx(root.duration_s, rel=1e-6, abs=1e-9)
    assert trace["agg_calls"] == {"hot": 1}
    inner_node = next(n for n in analysis.spans.values() if n.name == "inner")
    assert inner_node.parent_id == root.span_id and inner_node.trace_id == 7


# -- BENCHMARK.json ----------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.metric_specs()
