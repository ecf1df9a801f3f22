import threading

import pytest

import layers
import spans
from spans import Span, Tracer, cover, self_times


def span(sid, start, end, parent=None, name="x"):
    return Span(sid, name, start, end, 0.0, parent, 0)


def test_cover_merges_overlaps_and_clips():
    assert cover([(1, 3), (2, 4), (6, 7)], 0, 10) == pytest.approx(4)
    assert cover([(-1, 2), (9, 12)], 0, 10) == pytest.approx(3)
    assert cover([], 0, 10) == 0


def test_self_time_is_duration_minus_children_cover():
    sp = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 4.0, parent=1),
        span(3, 3.0, 5.0, parent=1),  # overlaps its sibling, as pool threads do
        span(4, 1.5, 2.0, parent=2),  # grandchild: already inside its parent
        span(5, 8.0, 9.0, parent=1),
    ]
    st = self_times(sp)
    assert st[1] == pytest.approx(10.0 - (4.0 + 1.0))
    assert st[2] == pytest.approx(3.0 - 0.5)
    assert st[4] == pytest.approx(0.5)


def test_tracer_parents_and_worker_threads():
    tr = Tracer()
    inner = tr.wrap("inner", lambda: None)

    def outer_fn():
        inner()
        t = threading.Thread(target=inner)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tr.wrap("outer", outer_fn)()
    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s.name, []).append(s)
    (outer,) = by_name["outer"]
    assert outer.parent is None
    assert [s.parent for s in by_name["inner"]] == [outer.id, outer.id]


def test_tracer_records_errors():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    assert tr.spans[0].attrs == {"error": "ValueError"}


def test_install_traces_case1_and_uninstall_restores(tmp_path):
    import robustcoord.baselines
    import robustcoord.cli

    before = robustcoord.cli.design, robustcoord.baselines.smallest_equilibrium
    tr = Tracer()
    undo = spans.install(tr)
    try:
        assert robustcoord.cli.main(["run", "--scenario", "case1", "--out", str(tmp_path)]) == 0
    finally:
        undo()
    assert (robustcoord.cli.design, robustcoord.baselines.smallest_equilibrium) == before
    tr.spans[-1].attrs["op"] = "case1"
    m = layers.pass_metrics(tr.spans, {"case1": {"lp_tag": "n3", "ref_welfare": 8.052631578947368}})
    assert m["designer.design_calls"] > 0 and m["designer.ops"] > 0
    assert m["simplex.pivots.n3"] > 0 and m["lp.n_vars.n3"] == 32
    assert m["lp.certified_ratio"] == 1.0
    assert m["baselines.sweep_points_per_s"] > 0
    assert 0 < m["cli.self_s"] < m["cli.main_s"]
