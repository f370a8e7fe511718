from tracer import Tracer


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_is_span_minus_children():
    # outer 0..10, child a 1..4, child b 5..7, grandchild of b 5.5..6.5
    tracer = Tracer("run-1", clock=fake_clock([0, 1, 4, 5, 5.5, 6.5, 7, 10]))
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    assert tracer.self_times() == {"outer": 5, "a": 3, "b": 1, "c": 1}
    parents = {span["name"]: span["parent"] for span in tracer.spans}
    assert parents == {"outer": None, "a": 0, "b": 0, "c": 2}
    assert {span["run"] for span in tracer.spans} == {"run-1"}


def test_counts_accumulate_and_added_spans_are_reported():
    tracer = Tracer("run-2", clock=fake_clock([0, 2]))
    with tracer.span("only"):
        tracer.count("pairs", 3)
        tracer.count("pairs", 4)
    tracer.add_span("request", 10.0, 10.5)
    dumped = tracer.to_dict()
    assert dumped["counts"] == {"pairs": 7}
    assert dumped["self_time_s"] == {"only": 2, "request": 0.5}
    assert [span["name"] for span in dumped["spans"]] == ["only", "request"]


def test_span_closes_when_the_body_raises():
    tracer = Tracer("run-3", clock=fake_clock([0, 1]))
    try:
        with tracer.span("boom"):
            raise KeyError("x")
    except KeyError:
        pass
    assert tracer.spans[0]["end"] == 1
