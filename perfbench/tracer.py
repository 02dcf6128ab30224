"""In-memory span tracer that wraps onionprint's public functions from outside.

`install` replaces every public function of every `onionprint` module,
in every module namespace that holds it, with a wrapper that records one
span per call: name, start, end, thread CPU time, parent span and
request id. Imported names are wrapped too (`evaluation.match_pair`,
`scoring.extract`, ...), so calls through any module are seen. A span is
named after the function's home module and its shortest public name
there, so the kernel dispatch names (`kernels.best_alignment`) win over
the variant they resolve to. Spans stay in memory until `dump`.

Only calls made in this process are seen. A process pool that moves
`match_pair` into worker processes takes its spans out of reach of these
wrappers, so such a change has to bring its own spans back.
"""

import importlib
import itertools
import json
import pkgutil
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    cpu: float  # thread CPU seconds inside the span
    request: str
    thread: int
    count: object  # per-call work count, see COUNTERS

    @property
    def duration(self):
        return self.end - self.start


FIELDS = ("id", "parent", "name", "start", "end", "cpu", "request", "thread", "count")


def _mn(args, kwargs, result):
    return len(args[0]) * len(args[3])


# work counted at the boundary where it happens: (args, kwargs, result) -> value
COUNTERS = {
    "kernels.best_alignment": _mn,  # hypotheses visited, m * n
    "alignment.match_minutiae": lambda a, kw, r: r.k,
    "geometry.convex_layers": lambda a, kw, r: len(r),
    "imgproc.detect_minutiae": lambda a, kw, r: len(r),
    "imgproc.extract": lambda a, kw, r: len(r),
    "scoring.match_pair": lambda a, kw, r: r.gated,
}


def _pair_request(args, kwargs):
    return f"{kwargs.get('ida')}~{kwargs.get('idb')}"


# root spans that carry their own request id when the caller set none
REQUESTS = {"scoring.match_pair": _pair_request}


class Tracer:
    def __init__(self):
        self._records = []  # Span fields as plain tuples, cheaper to make
        self._ids = itertools.count(1)
        self._local = threading.local()

    @property
    def spans(self):
        return [Span(*r) for r in self._records]

    def set_request(self, request):
        self._local.request = request

    def wrap(self, name, fn):
        local = self._local
        records = self._records
        ids = self._ids
        counter = COUNTERS.get(name)
        requester = REQUESTS.get(name)

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            own_request = requester is not None and getattr(local, "request", None) is None
            if own_request:
                local.request = requester(args, kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                cpu1 = time.thread_time()
                stack.pop()
                count = counter(args, kwargs, result) if counter and result is not None else None
                records.append((sid, parent, name, t0, t1, cpu1 - cpu0,
                                getattr(local, "request", None), threading.get_ident(), count))
                if own_request:
                    local.request = None

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def dump(self, path):
        """Write one JSON object per span, in the order the spans ended."""
        with open(path, "w") as fh:
            for r in self._records:
                fh.write(json.dumps(dict(zip(FIELDS, r))) + "\n")


def _modules():
    import onionprint

    mods = [onionprint]
    for info in pkgutil.iter_modules(onionprint.__path__):
        mods.append(importlib.import_module(f"onionprint.{info.name}"))
    return mods


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                and obj.__module__.startswith("onionprint")):
            yield attr, obj


def install(tracer):
    """Wrap every public onionprint function everywhere; returns an undo callable."""
    mods = _modules()
    canonical = {}
    for mod in mods:
        short = mod.__name__.rpartition(".")[2]
        for attr, fn in _public_functions(mod):
            if fn.__module__ == mod.__name__:
                best = canonical.get(fn)
                if best is None or len(attr) < len(best.rpartition(".")[2]):
                    canonical[fn] = f"{short}.{attr}"
    wrappers = {}
    undo = []
    for mod in mods:
        for attr, fn in list(_public_functions(mod)):
            if fn not in canonical:
                continue
            if fn not in wrappers:
                wrappers[fn] = tracer.wrap(canonical[fn], fn)
            setattr(mod, attr, wrappers[fn])
            undo.append((mod, attr, fn))

    def uninstall():
        for mod, attr, fn in undo:
            setattr(mod, attr, fn)

    return uninstall


# ---------------------------------------------------------------------------
# Derived figures
# ---------------------------------------------------------------------------


def _covered(intervals):
    """Total length of a union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """{sid: duration minus the part of it that child spans cover}."""
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.sid, ())]
        out[s.sid] = s.duration - _covered([k for k in kids if k[1] > k[0]])
    return out


def subtree_self_sums(spans):
    """[(root duration, sum of self times over its subtree)] per root span."""
    selfs = self_times(spans)
    parent = {s.sid: s.parent for s in spans}
    root_of = {}

    def find_root(sid):
        path = []
        while parent.get(sid, 0):
            if sid in root_of:
                break
            path.append(sid)
            sid = parent[sid]
        root = root_of.get(sid, sid)
        for p in path:
            root_of[p] = root
        return root

    sums = defaultdict(float)
    for s in spans:
        sums[find_root(s.sid)] += selfs[s.sid]
    by_id = {s.sid: s for s in spans}
    return [(by_id[r].duration, total) for r, total in sums.items()]


def layer_metrics(spans, ops, tail_ops=()):
    """Per-layer figures from the spans of a traced pass over `ops` requests.

    Times ending in `_s` are seconds per request (pair or image), spans
    included whole; `_self_s` subtracts child spans. Loading times are
    seconds per file loaded. Counts are per request. `tail_ops` names the
    requests at or above the tail latency, for `imgproc.merge_tail_frac`.
    """
    selfs = self_times(spans)
    dur = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for s in spans:
        dur[s.name] += s.duration
        self_t[s.name] += selfs[s.sid]
        calls[s.name] += 1
        if s.count is not None:
            counts[s.name] += float(s.count)

    def per_op(value):
        return value / ops if ops else 0.0

    def per_call(name):
        return dur[name] / calls[name] if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    pair_spans = [s for s in spans if s.name == "scoring.match_pair"]
    tail = set(tail_ops)
    tail_extract = sum(s.duration for s in spans
                       if s.name == "imgproc.extract" and s.request in tail)
    tail_merge = sum(s.duration for s in spans
                     if s.name == "imgproc.merge_close" and s.request in tail)
    return {
        "kernels.align_s": per_op(dur["kernels.best_alignment"]),
        "alignment.match_self_s": per_op(self_t["alignment.match_minutiae"]),
        "alignment.hypotheses": per_op(counts["kernels.best_alignment"]),
        "alignment.matched_k": ratio(counts["alignment.match_minutiae"],
                                     calls["alignment.match_minutiae"]),
        "scoring.align_frac": ratio(dur["alignment.match_minutiae"], dur["scoring.match_pair"]),
        "geometry.peel_s": per_op(dur["geometry.convex_layers"]),
        "geometry.peel_calls": per_op(calls["geometry.convex_layers"]),
        "geometry.rings": per_op(counts["geometry.convex_layers"]),
        "turning.function_s": per_op(dur["turning.turning_function"]),
        "kernels.turning_s": per_op(dur["kernels.min_turning_distance"]),
        "kernels.turning_calls": per_op(calls["kernels.min_turning_distance"]),
        "scoring.match_pair_self_s": per_op(self_t["scoring.match_pair"]),
        "scoring.gated_frac": ratio(counts["scoring.match_pair"], calls["scoring.match_pair"]),
        "imgproc.binarize_s": per_op(dur["imgproc.binarize"]),
        "imgproc.despeckle_s": per_op(dur["imgproc.despeckle"]),
        "imgproc.thin_s": per_op(dur["imgproc.thin"]),
        "kernels.zs_pass_s": per_op(dur["kernels.zhang_suen_pass"]),
        "kernels.zs_passes": per_op(calls["kernels.zhang_suen_pass"]),
        "imgproc.detect_s": per_op(dur["imgproc.detect_minutiae"]),
        "imgproc.border_s": per_op(dur["imgproc.remove_border_minutiae"]),
        "imgproc.merge_s": per_op(dur["imgproc.merge_close"]),
        "imgproc.merge_tail_frac": ratio(tail_merge, tail_extract),
        "imgproc.raw_detections": per_op(counts["imgproc.detect_minutiae"]),
        "imgproc.final_minutiae": per_op(counts["imgproc.extract"]),
        "imgproc.kept_frac": ratio(counts["imgproc.extract"], counts["imgproc.detect_minutiae"]),
        "pgm.parse_s": per_call("pgm.parse_pgm"),
        "minutiae.parse_s": per_call("minutiae.parse_minutiae"),
        "evaluation.load_s": per_call("evaluation.load_fingerprint"),
        "evaluation.score_pairs_s": per_op(dur["evaluation.score_pairs"]),
        "evaluation.pair_cpu_frac": ratio(sum(s.cpu for s in pair_spans),
                                          sum(s.duration for s in pair_spans)),
        "evaluation.rates_s": per_op(dur["evaluation.rates_and_metrics"]),
        "evaluation.report_s": per_op(dur["evaluation.write_report_files"]),
    }
