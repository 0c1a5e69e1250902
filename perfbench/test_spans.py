"""Self-time arithmetic on synthetic span sets.

Run with `python3 -m pytest perfbench/test_spans.py` or `python3 perfbench/test_spans.py`.
"""

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Span, Tracer, aggregate, self_times  # noqa: E402


def _span(i, parent, name, start, end, work=()):
    return Span(i, parent, 0, name, start, end, work)


def test_nested_self_times():
    # op [0, 10] > cli [1, 9] > parse [2, 5] (> to_matrix [3, 4]) and kernel twice [6, 7], [7.5, 8.5]
    spans = [
        _span(0, None, "op", 0.0, 10.0),
        _span(1, 0, "cli", 1.0, 9.0),
        _span(2, 1, "parse", 2.0, 5.0, (100, 4000)),
        _span(3, 2, "to_matrix", 3.0, 4.0),
        _span(4, 1, "kernel", 6.0, 7.0, (50,)),
        _span(5, 1, "kernel", 7.5, 8.5, (70,)),
    ]
    got = self_times(spans)
    want = {0: 2.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 1.0}
    for k, v in want.items():
        assert math.isclose(got[k], v), (k, got[k], v)
    # self times partition the root interval
    assert math.isclose(sum(got.values()), 10.0)
    agg = aggregate(spans)
    assert agg["kernel"].calls == 2
    assert math.isclose(agg["kernel"].self_s, 2.0)
    assert agg["kernel"].work == (120,)
    assert agg["parse"].work == (100, 4000)
    assert math.isclose(agg["cli"].total_s, 8.0)


def test_overlapping_and_overhanging_children_counted_once():
    spans = [
        _span(0, None, "p", 0.0, 4.0),
        _span(1, 0, "a", 1.0, 3.0),
        _span(2, 0, "b", 2.0, 5.0),   # overlaps a, runs past the parent's end
    ]
    assert math.isclose(self_times(spans)[0], 1.0)


def test_tracer_records_parents_and_disabled_calls_nothing():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap(leaf, "leaf", work=lambda a, k, r: (r,))

    def outer():
        return traced_leaf(1) + traced_leaf(2)

    traced_outer = tracer.wrap(outer, lambda a, k: "outer")
    assert traced_outer() == 5
    assert tracer.spans == []
    tracer.enabled = True
    tracer.trace_id = 7
    with tracer.span("op"):
        traced_outer()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (op,), (out,) = by_name["op"], by_name["outer"]
    assert op.parent_id is None and out.parent_id == op.span_id
    assert [s.parent_id for s in by_name["leaf"]] == [out.span_id] * 2
    assert {s.trace_id for s in tracer.spans} == {7}
    assert aggregate(tracer.spans)["leaf"].work == (5,)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"{name}: ok")
