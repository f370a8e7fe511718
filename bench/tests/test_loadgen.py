"""The open loop sends on schedule, times from the due time and
reports how late the generator ran — checked on a simulated clock."""

import loadgen
from loadgen import Request


class SimulatedTime:
    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def stalling_connection(sim, service_times):
    """A connection whose k-th request takes service_times[k] seconds."""
    durations = iter(service_times)

    class FakeConnection:
        def __init__(self, host, port):
            pass

        def send(self, request):
            sim.now += next(durations)
            return 200, b"{}"

        def close(self):
            pass

    return FakeConnection


def test_open_loop_times_from_due_time_and_reports_lateness():
    sim = SimulatedTime()
    schedule = [Request("GET", f"/r{i}", due=i * 1.0) for i in range(4)]
    # the second request stalls for 2.5 s: the third and fourth go late
    connect = stalling_connection(sim, [0.1, 2.5, 0.1, 0.1])
    samples, window = loadgen.open_loop(
        "h", 1, [schedule], clock=sim.clock, sleep=sim.sleep, connect=connect
    )
    assert [round(s.due - 100.0, 6) for s in samples] == [0, 1, 2, 3]
    assert [round(s.sent - 100.0, 6) for s in samples] == [0, 1, 3.5, 3.6]
    lateness = [round(s.lateness_ms) for s in samples]
    assert lateness == [0, 0, 1500, 600]
    # latency counts from when the request was due, not from when it left
    latency = [round(s.latency_ms) for s in samples]
    assert latency == [100, 2500, 1600, 700]
    assert round(window, 6) == 3.7
    assert all(s.ok for s in samples)


def test_open_loop_follow_up_goes_out_right_after_its_sample():
    sim = SimulatedTime()
    schedule = [Request("POST", "/extend", kind="extend", due=1.0)]
    connect = stalling_connection(sim, [0.4, 0.2])

    def follow_up(sample):
        return Request("GET", "/match", kind="visible")

    samples, _ = loadgen.open_loop(
        "h", 1, [schedule], follow_up=follow_up,
        clock=sim.clock, sleep=sim.sleep, connect=connect,
    )
    extend, visible = samples
    assert visible.request.kind == "visible"
    assert visible.due == extend.done
    assert round((visible.done - extend.due) * 1000) == 600


def test_failed_request_is_kept_and_not_ok():
    sim = SimulatedTime()

    class Refusing:
        def __init__(self, host, port):
            pass

        def send(self, request):
            raise ConnectionRefusedError("nobody home")

        def close(self):
            pass

    samples, _ = loadgen.open_loop(
        "h", 1, [[Request("GET", "/x")]],
        clock=sim.clock, sleep=sim.sleep, connect=Refusing,
    )
    assert len(samples) == 1
    assert not samples[0].ok and "nobody home" in samples[0].error

    class NotFound(Refusing):
        def send(self, request):
            return 404, b"{}"

    samples, _ = loadgen.open_loop(
        "h", 1, [[Request("GET", "/x")]],
        clock=sim.clock, sleep=sim.sleep, connect=NotFound,
    )
    assert samples[0].status == 404 and not samples[0].ok
