"""Span recording around codseries' public functions, from outside `src/`.

``Tracer.install()`` replaces module attributes with wrappers that record a
span per call: name, start, end, parent span and job id.  Spans stay in
memory until :meth:`Tracer.write` at the end of a run.  Expression
evaluations are leaves that run up to 120,000 times per job, so they are
kept as per-parent counters (calls, seconds) instead of one span each;
their time still counts as child time of the span that made the call.

A span's self time is its duration minus the time of its direct children.
The root span of a job is ``cli.main``, so its self time is the CLI's own
work: argument parsing, validation, the inline oscillator CSV loop and the
report JSON.
"""

import json
import statistics
from time import perf_counter

__all__ = ["LAYER_METRICS", "Tracer"]

# (scheme factory in codseries.cli, layer whose cycle map it makes)
_SCHEME_FACTORIES = (
    ("build_scheme", "oscillator"),
    ("build_stationary_scheme", "stationary"),
    ("build_wave_scheme", "wave"),
)

# (module, attribute, span name)
_SPANS = (
    ("codseries.cli", "run_cod", "engine.run"),
    ("codseries.cli", "run_cod_with_source", "engine.run"),
    ("codseries.cli", "convergence_report", "engine.defect"),
    ("codseries.cli", "rk4_oscillator", "oracles.rk4"),
    ("codseries.cli", "propagate", "tdse.propagate"),
    ("codseries.cli", "write_csv", "grids.write_csv"),
    ("codseries.cli", "write_field_csv", "stationary.write_field_csv"),
    ("codseries.cli", "write_wave_csv", "wave.write_field_csv"),
    ("codseries.cli", "parse_expression", "expressions.parse"),
    ("codseries.tdse", "cod_step", "tdse.step"),
    ("codseries.oscillator", "cumulative_integral", "grids.cumtrapz"),
    ("codseries.wave", "cumtrapz_from", "grids.cumtrapz"),
)

LAYER_METRICS = (
    ("engine.run_s", "s"), ("engine.self_s", "s"), ("engine.terms", "count"),
    ("engine.s_per_term", "s"), ("engine.defect_s", "s"),
    ("oscillator.build_s", "s"), ("oscillator.cycle_map_s", "s"),
    ("oscillator.cycle_map_ns_per_point", "ns"),
    ("stationary.build_s", "s"), ("stationary.cycle_map_s", "s"),
    ("stationary.cycle_map_ns_per_point", "ns"), ("stationary.write_field_csv_s", "s"),
    ("wave.build_s", "s"), ("wave.cycle_map_s", "s"),
    ("wave.cycle_map_ns_per_point", "ns"), ("wave.write_field_csv_s", "s"),
    ("grids.cumtrapz_s", "s"), ("grids.cumtrapz_calls", "count"), ("grids.write_csv_s", "s"),
    ("tdse.propagate_s", "s"), ("tdse.step_s", "s"), ("tdse.steps", "count"),
    ("tdse.max_drift", "1"),
    ("oracles.rk4_s", "s"), ("oracles.rk4_substeps", "count"),
    ("expressions.parse_s", "s"), ("expressions.eval_s", "s"),
    ("expressions.scalar_calls", "count"), ("expressions.array_calls", "count"),
    ("cli.self_s", "s"), ("cli.bytes_written", "B"),
)

_NAME, _START, _END, _PARENT, _JOB, _CHILD = range(6)


class Tracer:
    """In-memory span log for one benchmark run."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, job, child seconds]
        self.leaves = {}     # (parent index, name) -> [calls, seconds]
        self.facts = {}      # (job, key) -> value read off a traced call
        self.job = -1
        self._stack = []
        self._saved = []

    # ------------------------------------------------------------ recording

    def span(self, name, fn, on_return=None):
        """Wrap ``fn`` so each call records one span named ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.job, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[_END] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][_CHILD] += end - record[_START]
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def leaf(self, name, fn):
        """Wrap ``fn`` as a counted leaf call of the innermost open span."""
        spans, stack, leaves = self.spans, self._stack, self.leaves

        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            parent = stack[-1] if stack else -1
            counter = leaves.get((parent, name))
            if counter is None:
                counter = leaves[(parent, name)] = [0, 0.0]
            counter[0] += 1
            counter[1] += elapsed
            if parent >= 0:
                spans[parent][_CHILD] += elapsed
            return result

        return traced

    def _add_fact(self, key, value, combine=lambda old, new: old + new):
        k = (self.job, key)
        self.facts[k] = value if k not in self.facts else combine(self.facts[k], value)

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap the traced functions; :meth:`uninstall` restores them."""
        import importlib

        from codseries import cli
        from codseries.expressions import Expression

        facts = {
            "engine.run": lambda args, run: self._add_fact("engine.terms", run.terms_used),
            "tdse.propagate": lambda args, out: self._add_fact(
                "tdse.max_drift", max(r["drift"] for r in out[1].records), max),
            "oracles.rk4": lambda args, res: self._add_fact(
                "oracles.rk4_substeps", round(args[4].step / res.step_used)),
        }
        for module, attr, name in _SPANS:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self.span(name, getattr(owner, attr), facts.get(name)))

        for attr, layer in _SCHEME_FACTORIES:
            self._patch(cli, attr, self.span(f"{layer}.build", getattr(cli, attr),
                                             self._cycle_map_wrapper(layer)))

        unary = Expression.unary
        leaf = self.leaf
        self._patch(Expression, "unary",
                    lambda expr, name: leaf("expressions.scalar", unary(expr, name)))
        self._patch(Expression, "__call__", leaf("expressions.array", Expression.__call__))

    def _cycle_map_wrapper(self, layer):
        def wrap_scheme(args, scheme):
            self._add_fact(f"{layer}.points", scheme.generating.values.size, max)
            scheme.cycle_map = self.span(f"{layer}.cycle_map", scheme.cycle_map)
        return wrap_scheme

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_job(self, job, fn, *args):
        """Call ``fn(*args)`` as the root span ``cli.main`` of job ``job``."""
        self.job = job
        try:
            return self.span("cli.main", fn)(*args)
        finally:
            self.job = -1

    # ------------------------------------------------------------ reduction

    def job_layers(self, job, bytes_written) -> dict:
        """Per-layer metrics of one traced job."""
        dur, own, calls = {}, {}, {}
        for s in self.spans:
            if s[_JOB] != job:
                continue
            d = s[_END] - s[_START]
            name = s[_NAME]
            dur[name] = dur.get(name, 0.0) + d
            own[name] = own.get(name, 0.0) + d - s[_CHILD]
            calls[name] = calls.get(name, 0) + 1
        leaf_calls, leaf_s = {}, {}
        for (parent, name), (n, seconds) in self.leaves.items():
            if parent >= 0 and self.spans[parent][_JOB] == job:
                leaf_calls[name] = leaf_calls.get(name, 0) + n
                leaf_s[name] = leaf_s.get(name, 0.0) + seconds

        fact = lambda key: self.facts.get((job, key), 0)
        out = {
            "engine.run_s": dur.get("engine.run", 0.0),
            "engine.self_s": own.get("engine.run", 0.0),
            "engine.terms": fact("engine.terms"),
            "engine.defect_s": dur.get("engine.defect", 0.0),
        }
        out["engine.s_per_term"] = (out["engine.run_s"] / out["engine.terms"]
                                    if out["engine.terms"] else 0.0)
        for layer in ("oscillator", "stationary", "wave"):
            cycle = f"{layer}.cycle_map"
            points = calls.get(cycle, 0) * fact(f"{layer}.points")
            out[f"{layer}.build_s"] = dur.get(f"{layer}.build", 0.0)
            out[f"{layer}.cycle_map_s"] = dur.get(cycle, 0.0)
            out[f"{layer}.cycle_map_ns_per_point"] = (1e9 * dur[cycle] / points
                                                      if points else 0.0)
        for layer in ("stationary", "wave"):
            out[f"{layer}.write_field_csv_s"] = dur.get(f"{layer}.write_field_csv", 0.0)
        steps = calls.get("tdse.step", 0)
        out.update({
            "grids.cumtrapz_s": dur.get("grids.cumtrapz", 0.0),
            "grids.cumtrapz_calls": calls.get("grids.cumtrapz", 0),
            "grids.write_csv_s": dur.get("grids.write_csv", 0.0),
            "tdse.propagate_s": dur.get("tdse.propagate", 0.0),
            "tdse.step_s": dur["tdse.step"] / steps if steps else 0.0,
            "tdse.steps": steps,
            "tdse.max_drift": fact("tdse.max_drift"),
            "oracles.rk4_s": dur.get("oracles.rk4", 0.0),
            "oracles.rk4_substeps": fact("oracles.rk4_substeps"),
            "expressions.parse_s": dur.get("expressions.parse", 0.0),
            "expressions.eval_s": sum(leaf_s.values()),
            "expressions.scalar_calls": leaf_calls.get("expressions.scalar", 0),
            "expressions.array_calls": leaf_calls.get("expressions.array", 0),
            "cli.self_s": own.get("cli.main", 0.0),
            "cli.bytes_written": bytes_written,
        })
        # self times of all spans plus leaf time must tile the job exactly
        out["_tiling_gap_s"] = abs(sum(own.values()) + sum(leaf_s.values())
                                   - dur.get("cli.main", 0.0))
        return out

    @staticmethod
    def medians(per_job: list) -> dict:
        """Median over jobs of every layer metric."""
        return {name: float(statistics.median(j[name] for j in per_job))
                for name, _ in LAYER_METRICS}

    def write(self, path):
        """Write spans and leaf counters as JSON lines."""
        with open(path, "w", encoding="ascii") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": s[_NAME], "start": s[_START],
                                     "end": s[_END], "parent": s[_PARENT],
                                     "job": s[_JOB]}) + "\n")
            for (parent, name), (n, seconds) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "parent": parent, "calls": n,
                                     "seconds": seconds}) + "\n")
