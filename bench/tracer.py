"""Spans around the package's public functions, installed from outside.

``install`` replaces each traced function at the name through which its
callers reach it (``cli.enumerate_towers`` as well as
``enumerator.enumerate_towers``, class attributes for methods) with a
wrapper that opens and closes a span, so the package itself is unchanged.
Spans live in flat arrays (id = index) until ``write`` saves them; per-name
call counts, outermost inclusive time and self time are kept as the spans
close, where self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.clock = time.process_time  # CPU seconds, as the end-to-end times
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("l")
        self.job = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.job_id = -1
        self.last_duration = 0.0
        self.counters: dict[str, float] = defaultdict(float)
        self.table_extents: dict[int, tuple[int, int]] = {}  # id(table) -> (b, n)
        self._stack: list[int] = []
        self._covered: list[float] = []
        self._depth: list[int] = []
        self._stats: list[list[float]] = []  # per name: calls, outermost s, self s

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self._stats.append([0, 0.0, 0.0])
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.name.append(nid)
        self.end.append(0.0)
        self._stack.append(sid)
        self._covered.append(0.0)
        self._depth[nid] += 1
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        now = self.clock()
        self.end[sid] = now
        self._stack.pop()
        duration = now - self.start[sid]
        nid = self.name[sid]
        stats = self._stats[nid]
        stats[0] += 1
        stats[2] += duration - self._covered.pop()
        self._depth[nid] -= 1
        if not self._depth[nid]:
            stats[1] += duration
        if self._covered:
            self._covered[-1] += duration
        self.last_duration = duration

    def stats(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds of outermost spans, self seconds)."""
        if name not in self._ids:
            return (0, 0.0, 0.0)
        calls, total, own = self._stats[self._ids[name]]
        return (int(calls), total, own)

    def wrap(self, fn, name: str, before=None, after=None):
        """Span per call; ``after(state, result)`` gets what ``before`` returned."""
        nid = self.intern(name)

        def traced(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            sid = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after:
                after(state, result)
            return result

        return functools.update_wrapper(traced, fn)

    def wrap_generator(self, fn, name: str):
        """Span per ``__next__``, so consumer work between items is not counted."""
        nid = self.intern(name)
        calls = name + ".calls"

        def traced(*args, **kwargs):
            self.counters[calls] += 1
            inner = fn(*args, **kwargs)
            while True:
                sid = self.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.close(sid)
                self.counters["enumerator.shapes"] += 1
                yield item

        return functools.update_wrapper(traced, fn)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tjob\tname\tstart_s\tend_s\n")
            for sid in range(len(self.start)):
                out.write(
                    f"{sid}\t{self.parent[sid]}\t{self.job[sid]}\t"
                    f"{self.names[self.name[sid]]}\t{self.start[sid]:.9f}\t"
                    f"{self.end[sid]:.9f}\n"
                )


CLI_COMMANDS = ("count", "table", "theta", "verify", "enumerate", "series", "oeis_check")


def install(tracer: Tracer) -> None:
    """Wrap every traced public function of the package in place."""
    from dominotowers import asymptotics, cli, enumerator, model, oeis, recurrences
    from dominotowers import series

    counters = tracer.counters

    def patch(owner, attr, name, **hooks):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, **hooks))

    for owner in (cli, enumerator):
        owner.enumerate_towers = tracer.wrap_generator(
            owner.enumerate_towers, "enumerator.enumerate_towers"
        )
    patch(cli, "census", "enumerator.census")
    for owner in (enumerator, model):
        patch(owner, "classify", "model.classify")
    for attr in ("dissect", "recombine"):
        patch(cli, attr, f"model.{attr}")
    shape = model.TowerShape
    shape.from_dominoes = classmethod(
        tracer.wrap(shape.__dict__["from_dominoes"].__func__,
                    "model.TowerShape.from_dominoes")
    )
    patch(shape, "__str__", "model.TowerShape.__str__")

    # A fill happens when ensure asks beyond the largest (b, n) seen for that
    # table; every fill after a table's first rebuilds it, which is a refill.
    # Every value lookup calls ensure, so only fills get a span.
    extents = tracer.table_extents
    ensure = recurrences.CountTable.ensure
    traced_fill = tracer.wrap(ensure, "recurrences.CountTable.ensure")

    def counted_ensure(table, max_b, max_n):
        counters["recurrences.CountTable.ensure.calls"] += 1
        old = extents.get(id(table))
        if old is not None and max_b <= old[0] and max_n <= old[1]:
            return ensure(table, max_b, max_n)
        new = (max_b, max_n) if old is None else (max(max_b, old[0]), max(max_n, old[1]))
        extents[id(table)] = new
        counters["recurrences.fills"] += 1
        counters["recurrences.refills"] += old is not None
        counters["recurrences.cells_filled"] += new[0] * new[1]
        return traced_fill(table, max_b, max_n)

    recurrences.CountTable.ensure = functools.update_wrapper(counted_ensure, ensure)

    def after_family_value(fills_before, result):
        if counters["recurrences.fills"] == fills_before:
            counters["recurrences.family_value.warm_calls"] += 1
            counters["recurrences.family_value.warm_s"] += tracer.last_duration

    patch(recurrences, "family_value", "recurrences.family_value",
          before=lambda *a, **k: counters["recurrences.fills"],
          after=after_family_value)
    patch(recurrences, "c", "recurrences.c")
    patch(recurrences, "table", "recurrences.table")

    for family in "GHRC":
        patch(series, f"build_{family}", f"series.build_{family}")

    def before_mul(left, right):
        if isinstance(right, int):
            counters["series.mul.coeff_products_computed"] += len(left.coeffs)
        else:
            n = min(left.order, right.order)
            counters["series.mul.coeff_products_computed"] += (n + 1) * (n + 2) // 2

    mul = tracer.wrap(series.TruncatedSeries.__mul__, "series.mul", before=before_mul)
    series.TruncatedSeries.__mul__ = series.TruncatedSeries.__rmul__ = mul

    for attr in ("theta_exact", "limit_constant_digits"):
        patch(asymptotics, attr, f"asymptotics.{attr}")

    def after_compare(_, result):
        counters["oeis.terms_compared"] += result.compared

    patch(oeis, "parse_bfile", "oeis.parse_bfile")
    patch(oeis, "compare_bfile", "oeis.compare_bfile", after=after_compare)
    patch(cli, "render_table", "render.render_table")
    for command in CLI_COMMANDS:
        patch(cli, f"cmd_{command}", f"cli.cmd_{command}")
    patch(cli, "run_verifications", "cli.run_verifications")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced run, keyed as in BENCHMARK.json."""
    out: dict[str, float] = {}
    c = tracer.counters

    def timed(name, calls=False, own=False):
        n, total, self_s = tracer.stats(name)
        if calls:
            out[name + ".calls"] = n
        out[name + (".self_s" if own else ".s")] = self_s if own else total

    timed("enumerator.enumerate_towers")
    out["enumerator.enumerate_towers.calls"] = c["enumerator.enumerate_towers.calls"]
    out["enumerator.shapes"] = c["enumerator.shapes"]
    enum_s = out["enumerator.enumerate_towers.s"]
    out["enumerator.shapes_per_s"] = c["enumerator.shapes"] / enum_s if enum_s else 0.0
    timed("enumerator.census")
    timed("model.TowerShape.from_dominoes", calls=True)
    built = out["model.TowerShape.from_dominoes.calls"]
    out["model.shapes_built_per_yielded"] = (
        built / c["enumerator.shapes"] if c["enumerator.shapes"] else 0.0
    )
    timed("model.classify", calls=True)
    for name in ("model.dissect", "model.recombine", "model.TowerShape.__str__"):
        timed(name)
    out["recurrences.CountTable.ensure.calls"] = c["recurrences.CountTable.ensure.calls"]
    timed("recurrences.CountTable.ensure")
    for name in ("fills", "refills", "cells_filled"):
        out[f"recurrences.{name}"] = c[f"recurrences.{name}"]
    filled = c["recurrences.cells_filled"]
    final = sum(b * n for b, n in tracer.table_extents.values())
    out["recurrences.fill_efficiency"] = final / filled if filled else 0.0
    timed("recurrences.c")
    timed("recurrences.table")
    timed("recurrences.family_value", calls=True)
    out["recurrences.family_value.warm_calls"] = c["recurrences.family_value.warm_calls"]
    out["recurrences.family_value.warm_s"] = c["recurrences.family_value.warm_s"]
    for family in "GHRC":
        timed(f"series.build_{family}")
    timed("series.mul", calls=True)
    out["series.mul.coeff_products_computed"] = c["series.mul.coeff_products_computed"]
    timed("asymptotics.theta_exact")
    timed("asymptotics.limit_constant_digits")
    timed("oeis.parse_bfile")
    timed("oeis.compare_bfile")
    out["oeis.terms_compared"] = c["oeis.terms_compared"]
    timed("render.render_table")
    for command in CLI_COMMANDS:
        timed(f"cli.cmd_{command}", own=True)
    timed("cli.run_verifications")
    out["trace.spans"] = len(tracer.start)
    return out
