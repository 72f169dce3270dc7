"""Run one gobgraph CLI command in this process and record what it did.

    python child.py SRC RECORD MODE [--capture] -- <gobgraph arguments>

SRC is the directory that holds the gobgraph package; RECORD is the JSON
file written when the command ends.  MODE is one of

  plain  note the monotonic time of the first sampler call (set-up ends
         there);
  trace  as plain, and also time the calls into each module and count the
         work they do (per-module metrics).

With --capture every edge vector a sampler returns is saved next to RECORD
(as .npz), keyed by the substream it was drawn from, so the benchmark can
recompute the graph statistics independently.

The wrappers are installed from outside the package by rebinding names
where they are looked up: `experiments` and `cli` import their
collaborators by name, so those bindings are the ones replaced.
"""

import json
import os
import sys
import time


class Tracer:
    """Spans aggregated by (name, parent) plus work counters, in memory."""

    def __init__(self):
        self.stack = []
        self.spans = {}   # (name, parent) -> [calls, total_ns]
        self.counts = {}

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, after=None):
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            key = (name, stack[-1] if stack else None)
            stack.append(name)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                rec = spans.get(key)
                if rec is None:
                    spans[key] = [1, elapsed]
                else:
                    rec[0] += 1
                    rec[1] += elapsed
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def to_json(self):
        return {
            "spans": [{"name": n, "parent": p, "calls": c, "ns": ns}
                      for (n, p), (c, ns) in sorted(self.spans.items(),
                                                    key=lambda kv: str(kv[0]))],
            "counts": self.counts,
        }


class Recorder:
    def __init__(self, record_path, mode, capture):
        self.record_path = record_path
        self.capture = capture
        self.tracer = Tracer() if mode == "trace" else None
        self.first_draw = None
        self.import_s = None
        self.stream_keys = {}   # id(generator) -> substream key
        self.vectors = []       # (n, key, array)

    def write(self, exit_code):
        out = {
            "exit_code": exit_code,
            "first_draw": self.first_draw,
            "import_s": self.import_s,
        }
        if self.tracer is not None:
            out["trace"] = self.tracer.to_json()
        if self.capture:
            import numpy as np  # not at the top: cli.import_s includes numpy
            path = self.record_path + ".npz"
            np.savez(path, **{f"v{i}": x for i, (_, _, x) in enumerate(self.vectors)})
            out["vectors"] = {"file": os.path.basename(path),
                              "index": [[n, list(key)] for n, key, _ in self.vectors]}
        with open(self.record_path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)

    # -- wrappers ----------------------------------------------------------

    def substream(self, fn):
        keys = self.stream_keys

        def keyed(master_seed, key):
            gen = fn(master_seed, key)
            keys[id(gen)] = [key] if isinstance(key, int) else list(key)
            return gen

        return self._span("rng.substream", keyed)

    def make_sampler(self, fn):
        def bound(spec, cfg):
            return self._draw(fn(spec, cfg), spec, cfg)

        return self._span("samplers.make_sampler", bound)

    def _draw(self, sampler, spec, cfg):
        rec = self
        tracer = self.tracer
        dim = spec.dim
        hr = cfg.method == "hit_and_run"
        burn, thin = cfg.resolved_schedule(dim)

        def draw(stream, count):
            if rec.first_draw is None:
                rec.first_draw = time.monotonic()
            X = sampler(stream, count)
            if rec.capture:
                rec.vectors.append((spec.n, rec.stream_keys.get(id(stream), []),
                                    X.copy()))
            return X

        if tracer is not None:
            def after(X, args, kwargs):
                count = args[1]
                tracer.count("samplers.vectors", count)
                tracer.count("samplers.coords", count * dim)
                if hr:
                    tracer.count("samplers.hr_steps", burn + count * thin)
            draw = tracer.wrap("samplers.hr_draw" if hr else "samplers.draw",
                               draw, after)
        draw.dim = dim
        return draw

    def estimator(self, fn):
        tracer = self.tracer
        if tracer is None:
            return fn

        def after(out, args, kwargs):
            sampler, reps = args[0], args[-1]
            mb = reps * sampler.dim * 8 / 1e6
            tracer.counts["estimators.array_mb"] = max(
                tracer.counts.get("estimators.array_mb", 0.0), mb)

        return tracer.wrap("estimators.call", fn, after)

    def _span(self, name, fn, after=None):
        if self.tracer is None:
            return fn
        return self.tracer.wrap(name, fn, after)


def install(rec, cli, experiments, config, orlicz):
    """Rebind the package's collaborators to recording wrappers."""
    if rec.capture or rec.tracer is not None:
        sub = rec.substream(cli.substream)
        cli.substream = sub
        experiments.substream = sub
    make = rec.make_sampler(cli.make_sampler)
    cli.make_sampler = make
    experiments.make_sampler = make
    cli.estimate_moments = rec.estimator(cli.estimate_moments)

    tracer = rec.tracer
    if tracer is None:
        return

    def counted(key, measure):
        return lambda out, args, kwargs: tracer.count(key, measure(out))

    def bytes_of(paths):
        if isinstance(paths, str):
            paths = [paths]
        return sum(os.path.getsize(p) for p in paths)

    cli.parse_config = tracer.wrap("config.parse", cli.parse_config)
    build = tracer.wrap("config.build_spec", config.build_spec)
    cli.build_spec = build
    config.build_spec = build
    cli.validate_sampler = tracer.wrap("samplers.validate", cli.validate_sampler)
    experiments.run_scan = tracer.wrap(
        "experiments.run_scan", experiments.run_scan,
        counted("experiments.cells", lambda result: len(result.rows)))
    experiments.build_graph = tracer.wrap(
        "graph.build_graph", experiments.build_graph,
        counted("graph.edges_kept", lambda g: len(g.edges)))
    experiments.components = tracer.wrap("graph.components", experiments.components)
    cli.emit_csv = tracer.wrap("report.emit", cli.emit_csv,
                               counted("report.bytes_written", bytes_of))
    cli.emit_plotdata = tracer.wrap("report.emit", cli.emit_plotdata,
                                    counted("report.bytes_written", bytes_of))

    spec_cls = orlicz.GobSpec
    spec_cls.chord = tracer.wrap("orlicz.chord", spec_cls.chord)
    spec_cls.total_batch = tracer.wrap("orlicz.total_batch", spec_cls.total_batch)
    total = spec_cls.total

    def counted_total(self, x):
        tracer.counts["orlicz.total_calls"] = tracer.counts.get("orlicz.total_calls", 0) + 1
        return total(self, x)

    spec_cls.total = counted_total


def main(argv):
    src, record_path, mode = argv[1], argv[2], argv[3]
    rest = argv[4:]
    capture = False
    if rest and rest[0] == "--capture":
        capture = True
        rest = rest[1:]
    if not rest or rest[0] != "--":
        raise SystemExit("usage: child.py SRC RECORD MODE [--capture] -- ARGS")
    rec = Recorder(record_path, mode, capture)
    sys.path.insert(0, src)
    start = time.perf_counter()
    from gobgraph import cli, config, experiments, orlicz
    rec.import_s = time.perf_counter() - start
    install(rec, cli, experiments, config, orlicz)
    code = 1
    try:
        code = cli.main(rest[1:])
    finally:
        sys.stdout.flush()
        rec.write(code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
