"""The tracer's bookkeeping, fed synthetic nested spans on a fake clock."""

from tracer import REQUEST_SPAN, Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _tree(tracer: Tracer, clock: FakeClock):
    """A request: top(5) -> [mid(1, leaf 2, 3, leaf 4), leaf 6]."""

    def advance(dt):
        clock.now += dt

    leaf = tracer.wrap("leaf", advance)

    def mid_body():
        advance(1)
        leaf(2)
        advance(3)
        leaf(4)

    mid = tracer.wrap("mid", mid_body)

    def top_body(extra=0):
        advance(5 + extra)
        mid()
        leaf(6)

    return tracer.wrap(REQUEST_SPAN, top_body)


def test_self_time_is_busy_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enabled = True
    top = _tree(tracer, clock)
    tracer.start_window()
    top()
    top()
    tracer.stop_window()
    assert tracer.stats[REQUEST_SPAN] == [2, 42.0, 10.0]
    assert tracer.stats["mid"] == [2, 20.0, 8.0]
    assert tracer.stats["leaf"] == [6, 24.0, 24.0]
    self_total = sum(stat[2] for stat in tracer.stats.values())
    assert self_total == tracer.covered_s == 42.0


def test_spans_of_one_tick_form_a_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enabled = True
    top = _tree(tracer, clock)
    tracer.start_window()
    top()
    top()
    tracer.stop_window()
    kept = tracer.kept_requests()
    assert [request for _, request, _ in kept] == [0, 1]
    for duration, _, spans in kept:
        assert duration == 21.0
        by_id = {span[0]: span for span in spans}
        edges = sorted(
            (name, by_id[parent][2]) for _, parent, name, _, _ in spans if parent
        )
        assert edges == [
            ("leaf", REQUEST_SPAN), ("leaf", "mid"), ("leaf", "mid"),
            ("mid", REQUEST_SPAN),
        ]
        for _, parent, _, start, end in spans:
            if parent:
                assert by_id[parent][3] <= start <= end <= by_id[parent][4]


def test_reentry_under_the_same_name_is_not_counted_twice():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enabled = True

    def inner_body():
        clock.now += 2

    inner = tracer.wrap("store.add", inner_body)

    def outer_body():
        clock.now += 1
        inner()

    outer = tracer.wrap("store.add", outer_body)
    tracer.start_window()
    outer()
    assert tracer.stats["store.add"] == [1, 3.0, 3.0]


def test_gc_pauses_are_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enabled = True

    def body():
        clock.now += 1
        tracer._on_gc("start", {})
        clock.now += 4
        tracer._on_gc("stop", {})

    work = tracer.wrap(REQUEST_SPAN, body)
    tracer.start_window()
    work()
    assert tracer.stats[REQUEST_SPAN] == [1, 5.0, 1.0]
    assert tracer.stats["python.gc"] == [1, 4.0, 4.0]


def test_keeps_the_first_and_the_slowest_ticks():
    clock = FakeClock()
    tracer = Tracer(keep_first=2, keep_slowest=2, clock=clock)
    tracer.enabled = True
    top = _tree(tracer, clock)
    tracer.start_window()
    for extra in (0, 0, 7, 0, 3, 0):
        top(extra)
    tracer.stop_window()
    kept = tracer.kept_requests()
    assert [request for _, request, _ in kept] == [0, 1, 2, 4]
    assert [duration for duration, _, _ in kept] == [21.0, 21.0, 28.0, 24.0]


def test_disabled_tracer_records_nothing():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    top = _tree(tracer, clock)
    top()
    assert tracer.stats[REQUEST_SPAN] == [0, 0.0, 0.0]
    assert tracer.kept_requests() == []


def test_excluded_time_leaves_every_open_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enabled = True

    def probe_body():
        clock.now += 1
        clock.now += 5  # the benchmark's own work, not the program's
        tracer.exclude(5)

    inner = tracer.wrap("inner", probe_body)

    def outer_body():
        clock.now += 2
        inner()

    outer = tracer.wrap(REQUEST_SPAN, outer_body)
    tracer.start_window()
    outer()
    assert tracer.stats["inner"] == [1, 1.0, 1.0]
    assert tracer.stats[REQUEST_SPAN] == [1, 3.0, 2.0]
    assert tracer.covered_s == 3.0
