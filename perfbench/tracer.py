"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions of each layer with wrappers
that time them, and `uninstall()` puts the originals back.  Nothing under
`src/` is edited: the wrappers are set on the module attributes and classes
that callers look up at call time, including every module that imported a
function by name.

Each wrapped call is a frame on a per-thread stack.  A frame's self time is
its duration minus the time of the wrapped calls made inside it, so layer
times add up without double counting.  The hot leaves (`RandomTape.u64` and
the `MemoView` reads) are only counted and timed; every other call is also
kept as a span (name, start, end, self time, parent) in memory and written
out by `write_spans()` at the end of the run.

`lcmd bench` runs cells on a thread pool, so every thread has its own stack
and tallies, merged when the metrics are read.  A span's time is its wall
interval on its thread, which includes waits for the interpreter lock.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from time import perf_counter

from localmech import auctions, cli, harness, matching, randomness, rsd, scheduling
from localmech.auctions import AuctionInstance
from localmech.matching import MatchingInstance
from localmech.probes import LEFT, RIGHT, AdjacencyOracle, MemoView
from localmech.randomness import RandomTape
from localmech.rsd import HousingInstance
from localmech.scheduling import SchedulingInstance
from stats import percentile

# span name -> the module functions it wraps
_FUNCTIONS = {
    "randomness.draw": (randomness.derive_uniform, randomness.sample_without_replacement),
    "matching.local": (matching.local_ags, matching.local_ags_woman),
    "scheduling.local": (scheduling.slms_local, scheduling.rlms_local),
    "auctions.local": (auctions.uduv_local, auctions.udubv_local, auctions.ksmb_local),
    "rsd.local": (rsd.rsd_local,),
    "matching.global": (matching.abridged_gs, matching.global_gs),
    "scheduling.global": (scheduling.slms_online, scheduling.rlms_online),
    "auctions.global": (auctions.uduv_run, auctions.udubv_run, auctions.ksmb_run),
    "rsd.global": (rsd.rsd_global,),
    "harness.bench_points": (harness.bench_points,),
    "harness.summarize": (harness.summarize_bench,),
    "harness.csv": (harness.bench_records_csv, harness.render_csv),
    "cli.main": (cli.main,),
}
_INSTANCE_CLASSES = (MatchingInstance, SchedulingInstance, AuctionInstance, HousingInstance)
_LOCAL = ("matching.local", "scheduling.local", "auctions.local", "rsd.local")
_GLOBAL = ("matching.global", "scheduling.global", "auctions.global", "rsd.global")


class _Frame:
    __slots__ = ("span_id", "child_s", "views")

    def __init__(self, span_id: int) -> None:
        self.span_id = span_id
        self.child_s = 0.0
        self.views = None


class _ThreadState:
    def __init__(self, index: int) -> None:
        self.index = index
        self.stack: list[_Frame] = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.closures: list[int] = []
        self.charged = {LEFT: 0, RIGHT: 0}
        self.buyer_queries = 0
        self.winners = 0
        self.cells: set = set()
        self.next_id = 0
        self.in_local = 0  # depth of local-query spans on this thread
        self.u64_in_local = 0

    def add(self, name: str, dur: float, own: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + own


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = perf_counter()

    # -- per-thread state --------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.state = st
        return st

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, on_exit=None, keep: bool = True):
        """Wrap `fn` as a span named `name`; `keep=False` times it without
        keeping the span (for calls made hundreds of thousands of times)."""
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1].span_id if stack else None
            frame = _Frame(st.next_id)
            st.next_id += 1
            local = name in _LOCAL
            if local:
                frame.views = []
                st.in_local += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                st.in_local -= local
                dur = t1 - t0
                own = dur - frame.child_s
                st.add(name, dur, own)
                if stack:
                    stack[-1].child_s += dur
                if keep:
                    st.spans.append((frame.span_id, parent, name, t0, t1, own))
            if frame.views:
                # distinct forward records the query's view read (or was given)
                st.closures.append(sum(1 for side, _ in frame.views[0]._seen if side == LEFT))
            if on_exit is not None:
                on_exit(st, args, result)
            return result

        return wrapper

    def _u64(self, fn):
        """Wrap RandomTape.u64, the hottest leaf: counted and timed, no span."""
        tracer = self

        def u64(*args):
            st = tracer._state()
            t0 = perf_counter()
            result = fn(*args)
            dur = perf_counter() - t0
            st.calls["randomness.u64"] = st.calls.get("randomness.u64", 0) + 1
            st.total_s["randomness.u64"] = st.total_s.get("randomness.u64", 0.0) + dur
            if st.in_local:
                st.u64_in_local += 1
            if st.stack:
                st.stack[-1].child_s += dur
            return result

        return u64

    def _view_read(self, side: str, fn):
        tracer = self

        def read(view, i):
            st = tracer._state()
            charged = (side, i) not in view._seen
            t0 = perf_counter()
            result = fn(view, i)
            dur = perf_counter() - t0
            st.calls["probes.view"] = st.calls.get("probes.view", 0) + 1
            st.total_s["probes.view"] = st.total_s.get("probes.view", 0.0) + dur
            if charged:
                st.charged[side] += 1
            if st.stack:
                st.stack[-1].child_s += dur
            return result

        return read

    def _view_init(self, fn):
        tracer = self

        def init(view, *args, **kwargs):
            fn(view, *args, **kwargs)
            for frame in reversed(tracer._state().stack):
                if frame.views is not None:
                    frame.views.append(view)
                    break

        return init

    def _lazy_oracle(self, prop: property) -> property:
        build = self._span("scheduling.oracle", prop.fget)

        def get(inst):
            if inst._oracle is None:
                return build(inst)
            return prop.fget(inst)

        return property(get, doc=prop.__doc__)

    # -- on-exit observers ---------------------------------------------------

    @staticmethod
    def _buyer_result(st: _ThreadState, args, result) -> None:
        if args[0].mode in ("udubv", "ksmb"):
            st.buyer_queries += 1
            st.winners += bool(result["award"])

    @staticmethod
    def _cells(st: _ThreadState, args, result) -> None:
        st.cells.update((rec.family, rec.n, rec.seed) for rec in result)

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "localmech"]
        observers = {"auctions.local": self._buyer_result, "harness.bench_points": self._cells}
        for name, functions in _FUNCTIONS.items():
            for fn in functions:
                wrapped = self._span(name, fn, observers.get(name), keep=name != "randomness.draw")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._set(module, attr, wrapped)
        self._set(RandomTape, "u64", self._u64(RandomTape.u64))
        self._set(MemoView, "fwd", self._view_read(LEFT, MemoView.fwd))
        self._set(MemoView, "rev", self._view_read(RIGHT, MemoView.rev))
        self._set(MemoView, "__init__", self._view_init(MemoView.__init__))
        self._set(AdjacencyOracle, "__init__", self._span("probes.oracle_build", AdjacencyOracle.__init__))
        self._set(SchedulingInstance, "oracle", self._lazy_oracle(SchedulingInstance.__dict__["oracle"]))
        for cls in _INSTANCE_CLASSES:
            build = self._span("instances.build", cls.__dict__["from_spec"].__func__)
            self._set(cls, "from_spec", classmethod(build))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer figure this tracer can give, by metric name."""
        calls, total, own = Counter(), Counter(), Counter()
        closures: list[int] = []
        charged = Counter()
        cells: set = set()
        buyers = winners = u64_in_local = 0
        for st in self._states:
            calls.update(st.calls)
            total.update(st.total_s)
            own.update(st.self_s)
            charged.update(st.charged)
            closures.extend(st.closures)
            cells |= st.cells
            buyers += st.buyer_queries
            winners += st.winners
            u64_in_local += st.u64_in_local
        reads = calls["probes.view"]
        out = {
            "randomness.u64_calls": calls["randomness.u64"],
            "randomness.u64_query_calls": u64_in_local,
            "randomness.u64_s": total["randomness.u64"],
            "randomness.draw_calls": calls["randomness.draw"],
            "randomness.draw_s": own["randomness.draw"],
            "probes.view_reads": reads,
            "probes.view_s": total["probes.view"],
            "probes.memo_hit_ratio": 1.0 - (charged[LEFT] + charged[RIGHT]) / reads if reads else 0.0,
            "probes.charged_fwd": charged[LEFT],
            "probes.charged_rev": charged[RIGHT],
            "probes.closure_p50": percentile(closures, 0.5) if closures else 0,
            "probes.closure_max": max(closures, default=0),
            "probes.oracle_build_s": own["probes.oracle_build"],
            "instances.build_s": total["instances.build"],
            "instances.builds": calls["instances.build"],
            "scheduling.oracle_s": total["scheduling.oracle"],
            "scheduling.oracle_builds": calls["scheduling.oracle"],
        }
        for name in _LOCAL + _GLOBAL:
            out[f"{name}_s"] = own[name]
            out[f"{name}_calls"] = calls[name]
        out["local.self_s"] = sum(own[name] for name in _LOCAL)
        out["global.self_s"] = sum(own[name] for name in _GLOBAL)
        out["auctions.payment_share"] = winners / buyers if buyers else 0.0
        out["harness.bench_points_s"] = total["harness.bench_points"]
        out["harness.cells"] = len(cells)
        out["harness.summarize_s"] = own["harness.summarize"]
        out["harness.csv_s"] = own["harness.csv"]
        out["cli.self_s"] = own["cli.main"]
        return out

    def write_spans(self, path) -> int:
        """Write every recorded span as one JSON object per line."""
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            for st in self._states:
                for span_id, parent, name, t0, t1, own in st.spans:
                    doc = {
                        "thread": st.index,
                        "id": span_id,
                        "parent": parent,
                        "name": name,
                        "start_s": t0 - self._origin,
                        "end_s": t1 - self._origin,
                        "self_s": own,
                    }
                    fh.write(json.dumps(doc) + "\n")
                    count += 1
        return count
