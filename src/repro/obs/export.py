"""Telemetry exporters: Prometheus text, Chrome trace JSON, JSONL.

Three standard formats, so the simulated cluster can be inspected with
the same tools as a real one:

* :func:`prometheus_text` — the text exposition format (`# HELP` /
  `# TYPE` / sample lines); :func:`parse_prometheus_text` is the matching
  line-format checker CI round-trips the output through.
* :func:`chrome_trace` — trace-event JSON loadable in Perfetto or
  ``chrome://tracing``: one *process* track per trace context (one
  experiment/cluster) and one *thread* track per node component
  (category prefix: ``startup``, ``pod``, ``recovery``, …), complete
  ("X") events in simulated microseconds.
* :func:`jsonl_events` — a structured event log, one JSON object per
  line, monotonically ordered by simulated start timestamp.

:func:`load_trace_events` reads either trace format back and
:func:`render_breakdown` turns it into the per-layer/per-phase table
``repro inspect`` prints.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.obs.registry import (
    CounterChild,
    GaugeChild,
    HistogramChild,
    MetricsRegistry,
    _label_sort_key,
)
from repro.sim.trace import Span

# -- Prometheus text exposition ------------------------------------------------


def _fmt_value(value: float) -> str:
    if isinstance(value, bool):  # bools are ints; be explicit anyway
        return str(int(value))
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _label_str(labelnames: Tuple[str, ...], labelvalues: Tuple[str, ...], extra: str = "") -> str:
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every family in the text exposition format (name-sorted)."""
    lines: List[str] = []
    for family in registry.collect():
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labelvalues, child in family.samples():
            if isinstance(child, (CounterChild, GaugeChild)):
                label_str = _label_str(family.labelnames, labelvalues)
                lines.append(f"{family.name}{label_str} {_fmt_value(child.value)}")
            elif isinstance(child, HistogramChild):
                cumulative = child.cumulative_buckets()
                for upper, count in zip(family.buckets, cumulative):
                    le = _label_str(
                        family.labelnames, labelvalues, extra=f'le="{_fmt_value(upper)}"'
                    )
                    lines.append(f"{family.name}_bucket{le} {count}")
                inf = _label_str(family.labelnames, labelvalues, extra='le="+Inf"')
                lines.append(f"{family.name}_bucket{inf} {child.count}")
                label_str = _label_str(family.labelnames, labelvalues)
                lines.append(f"{family.name}_sum{label_str} {_fmt_value(child.sum)}")
                lines.append(f"{family.name}_count{label_str} {child.count}")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[+-]?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf)|NaN)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label(value: str) -> str:
    return value.replace(r"\"", '"').replace(r"\n", "\n").replace(r"\\", "\\")


def parse_prometheus_text(text: str) -> Dict[str, dict]:
    """Line-format checker: parse exposition text back into families.

    Returns ``{family: {"help": str, "type": str, "samples":
    {(sample_name, ((label, value), ...)): float}}}`` and raises
    :class:`ValueError` on any malformed line, duplicate sample, or
    sample without a preceding ``# TYPE``.
    """
    families: Dict[str, dict] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP ") :].split(" ", 1)
            families.setdefault(parts[0], {"help": "", "type": None, "samples": {}})[
                "help"
            ] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE ") :].split(" ", 1)
            if len(parts) != 2 or parts[1] not in ("counter", "gauge", "histogram"):
                raise ValueError(f"line {lineno}: bad TYPE line {line!r}")
            families.setdefault(parts[0], {"help": "", "type": None, "samples": {}})[
                "type"
            ] = parts[1]
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        sample_name = m.group("name")
        family_name = re.sub(r"_(bucket|sum|count)$", "", sample_name)
        family = families.get(sample_name) or families.get(family_name)
        if family is None or family["type"] is None:
            raise ValueError(f"line {lineno}: sample {sample_name!r} has no # TYPE")
        raw_labels = m.group("labels") or ""
        labels = tuple(
            (name, _unescape_label(value)) for name, value in _LABEL_RE.findall(raw_labels)
        )
        if raw_labels and not labels and raw_labels.strip():
            raise ValueError(f"line {lineno}: malformed labels {raw_labels!r}")
        value_str = m.group("value")
        value = float("nan") if value_str == "NaN" else float(value_str.replace("Inf", "inf"))
        key = (sample_name, labels)
        if key in family["samples"]:
            raise ValueError(f"line {lineno}: duplicate sample {key!r}")
        family["samples"][key] = value
    return families


def metric_families(text: str) -> List[str]:
    """Family names present in exposition text (validated)."""
    return sorted(parse_prometheus_text(text))


def render_metrics(text: str, prefix: Optional[str] = None) -> str:
    """Human-readable family/sample table over exposition text.

    ``repro inspect --metrics`` uses this to surface counters that have
    no span representation — e.g. the specialization tier's
    ``repro_specialize_*`` outcome/deopt families.
    """
    families = parse_prometheus_text(text)
    if prefix is not None:
        families = {
            name: fam for name, fam in families.items()
            if name.startswith(prefix)
        }
    if not families:
        return "metrics: no families" + (
            f" matching {prefix!r}" if prefix else ""
        )
    lines = [f"metrics: {len(families)} families"]
    for name in sorted(families):
        fam = families[name]
        lines.append(f"  {name} ({fam['type']}) {fam['help']}")
        for (sample, labels), value in sorted(
            fam["samples"].items(),
            key=lambda item: (
                item[0][0],
                tuple(_label_sort_key(v) for _, v in item[0][1]),
            ),
        ):
            label_s = ",".join(f"{k}={v}" for k, v in labels)
            rendered = f"{sample}{{{label_s}}}" if label_s else sample
            lines.append(f"    {rendered} = {value:g}")
    return "\n".join(lines)


def render_node_breakdown(text: str) -> str:
    """Per-node fleet table over exposition text.

    ``repro inspect --nodes`` uses this to pivot the per-node label
    children — scheduler placements, node working set, zygote warm/cold
    starts, evictions — into one row per node. Works on any metrics dump
    that carries a ``node`` label; single-node dumps render one row.
    """
    families = parse_prometheus_text(text)

    def by_node(family: str, *extra: str) -> Dict[tuple, float]:
        fam = families.get(family)
        if fam is None:
            return {}
        out: Dict[tuple, float] = {}
        for (_, labels), value in fam["samples"].items():
            d = dict(labels)
            if "node" not in d:
                continue
            key = (d["node"],) + tuple(d.get(k, "") for k in extra)
            out[key] = out.get(key, 0.0) + value
        return out

    placements = by_node("repro_scheduler_placements_total")
    working_set = by_node("repro_node_working_set_bytes")
    zygote = by_node("repro_kubelet_zygote_starts_total", "mode")
    evictions = by_node("repro_kubelet_evictions_total", "reason")

    nodes = sorted(
        {key[0] for src in (placements, working_set, zygote, evictions) for key in src}
    )
    if not nodes:
        return "nodes: no per-node samples (was the run multi-node?)"

    lines = [
        f"nodes: {len(nodes)}",
        f"{'node':16s}{'placed':>8s}{'ws MiB':>10s}{'warm':>7s}{'cold':>7s}"
        f"{'evicted':>9s}",
    ]
    for node in nodes:
        warm = zygote.get((node, "warm"), 0.0)
        cold = zygote.get((node, "cold"), 0.0)
        evicted = sum(v for k, v in evictions.items() if k[0] == node)
        lines.append(
            f"{node:16s}"
            f"{placements.get((node,), 0.0):>8g}"
            f"{working_set.get((node,), 0.0) / (1024 * 1024):>10.1f}"
            f"{warm:>7g}{cold:>7g}{evicted:>9g}"
        )
    reasons = sorted({k[1] for k in evictions if evictions[k]})
    for reason in reasons:
        total = sum(v for k, v in evictions.items() if k[1] == reason)
        lines.append(f"  evictions[{reason}] = {total:g}")
    return "\n".join(lines)


# -- Chrome trace-event JSON ---------------------------------------------------


def _component(category: str) -> str:
    """Node component owning a span: the category's first dotted segment."""
    return category.split(".", 1)[0]


def chrome_trace(
    tagged_spans: Iterable[Tuple[int, Span]],
    context_labels: Optional[Mapping[int, str]] = None,
    counter_samples: Optional[Iterable[Tuple[int, str, tuple, float, float]]] = None,
) -> dict:
    """Trace-event JSON: pid = trace context, tid = node component.

    Simulated seconds land on the trace timeline as microseconds, so a
    4-second deployment reads as 4 s in Perfetto. ``counter_samples``
    (``(cid, name, labels, ts, value)`` tuples, e.g. from
    ``timeseries.counter_track_samples()``) render as "C" counter-track
    events on the owning context's process track.
    """
    context_labels = dict(context_labels or {})
    events: List[dict] = []
    tids: Dict[Tuple[int, str], int] = {}
    seen_pids: Dict[int, bool] = {}

    def tid_for(pid: int, component: str) -> int:
        key = (pid, component)
        tid = tids.get(key)
        if tid is None:
            tid = len([k for k in tids if k[0] == pid]) + 1
            tids[key] = tid
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": component},
                }
            )
        return tid

    for cid, span in tagged_spans:
        pid = cid or 1
        if pid not in seen_pids:
            seen_pids[pid] = True
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "args": {"name": context_labels.get(pid, f"context-{pid}")},
                }
            )
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.category,
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid,
                "tid": tid_for(pid, _component(span.category)),
                "args": {k: v for k, v in span.attrs},
            }
        )
    for cid, name, labels, ts, value in counter_samples or ():
        pid = cid or 1
        if pid not in seen_pids:
            seen_pids[pid] = True
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "args": {"name": context_labels.get(pid, f"context-{pid}")},
                }
            )
        label_s = ",".join(f"{k}={v}" for k, v in labels)
        events.append(
            {
                "ph": "C",
                "name": f"{name}{{{label_s}}}" if label_s else name,
                "ts": round(ts * 1e6, 3),
                "pid": pid,
                "args": {"value": value},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(obj: object) -> int:
    """Assert trace-event schema; returns the number of complete events.

    Checks what Perfetto/``chrome://tracing`` require to load the file:
    a ``traceEvents`` list whose entries carry a phase, and whose "X"
    events have numeric ``ts``/``dur`` and integer ``pid``/``tid``.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("traceEvents"), list):
        raise ValueError("not a Chrome trace: missing traceEvents list")
    complete = 0
    for i, event in enumerate(obj["traceEvents"]):
        if not isinstance(event, dict) or "ph" not in event:
            raise ValueError(f"traceEvents[{i}]: not an event object")
        ph = event["ph"]
        if ph == "X":
            for field in ("name", "cat"):
                if not isinstance(event.get(field), str):
                    raise ValueError(f"traceEvents[{i}]: missing {field!r}")
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    raise ValueError(f"traceEvents[{i}]: bad {field!r}: {value!r}")
            if event["dur"] < 0:
                raise ValueError(f"traceEvents[{i}]: negative dur")
            for field in ("pid", "tid"):
                if not isinstance(event.get(field), int):
                    raise ValueError(f"traceEvents[{i}]: bad {field!r}")
            complete += 1
        elif ph == "M":
            if not isinstance(event.get("args"), dict):
                raise ValueError(f"traceEvents[{i}]: metadata event without args")
        elif ph == "C":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or not math.isfinite(ts):
                raise ValueError(f"traceEvents[{i}]: bad counter ts: {ts!r}")
            if not isinstance(event.get("pid"), int):
                raise ValueError(f"traceEvents[{i}]: bad counter pid")
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(f"traceEvents[{i}]: counter event without args")
            for key, value in args.items():
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    raise ValueError(
                        f"traceEvents[{i}]: non-numeric counter value {key}={value!r}"
                    )
        else:
            raise ValueError(f"traceEvents[{i}]: unexpected phase {ph!r}")
    return complete


# -- JSONL event log -----------------------------------------------------------


def jsonl_events(
    tagged_spans: Iterable[Tuple[int, Span]],
    context_labels: Optional[Mapping[int, str]] = None,
) -> str:
    """One JSON object per line, sorted by simulated start timestamp."""
    context_labels = dict(context_labels or {})
    rows = sorted(
        tagged_spans,
        key=lambda pair: (pair[1].start, pair[0], pair[1].end, pair[1].category, pair[1].name),
    )
    lines = [
        json.dumps(
            {
                "ts": span.start,
                "dur": span.duration,
                "category": span.category,
                "name": span.name,
                "ctx": context_labels.get(cid, f"context-{cid}"),
                "attrs": {k: v for k, v in span.attrs},
            },
            sort_keys=True,
        )
        for cid, span in rows
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# -- reading traces back (repro inspect) ---------------------------------------


def load_trace_events(path: pathlib.Path) -> List[dict]:
    """Read a Chrome trace JSON or JSONL file into normalized records.

    Records: ``{"category", "name", "ctx", "ts_s", "dur_s"}``.
    """
    text = pathlib.Path(path).read_text()
    records: List[dict] = []
    # A Chrome trace is one JSON document; JSONL is one object *per line*
    # (a multi-line JSONL file fails the whole-document parse).
    obj: object = None
    if pathlib.Path(path).suffix != ".jsonl":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            obj = None
    if isinstance(obj, dict):
        validate_chrome_trace(obj)
        names = {
            event["pid"]: event["args"].get("name", str(event["pid"]))
            for event in obj["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        for event in obj["traceEvents"]:
            if event["ph"] != "X":
                continue
            records.append(
                {
                    "category": event["cat"],
                    "name": event["name"],
                    "ctx": names.get(event["pid"], str(event["pid"])),
                    "ts_s": event["ts"] / 1e6,
                    "dur_s": event["dur"] / 1e6,
                }
            )
        return records
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        row = json.loads(line)
        records.append(
            {
                "category": row["category"],
                "name": row["name"],
                "ctx": row.get("ctx", ""),
                "ts_s": row["ts"],
                "dur_s": row["dur"],
            }
        )
    return records


def render_breakdown(
    records: List[dict],
    category: Optional[str] = None,
    top: Optional[int] = None,
    sort: str = "total",
) -> str:
    """Per-layer/per-phase table over trace records.

    One row per span category, grouped under its component (category
    prefix), with span counts and total/mean/max simulated time —
    the causal decomposition the paper's figures assert but never show.
    ``sort`` picks the row ordering metric (``total``/``count``/``mean``)
    and ``top`` keeps only the N heaviest categories overall.
    """
    if category is not None:
        records = [r for r in records if r["category"].startswith(category)]
    if not records:
        return "trace: no spans" + (f" matching {category!r}" if category else "")

    by_cat: Dict[str, List[dict]] = defaultdict(list)
    for record in records:
        by_cat[record["category"]].append(record)

    def total(cat: str) -> float:
        return sum(r["dur_s"] for r in by_cat[cat])

    def rank(cat: str) -> float:
        if sort == "count":
            return float(len(by_cat[cat]))
        if sort == "mean":
            return total(cat) / len(by_cat[cat])
        return total(cat)

    kept = sorted(by_cat, key=lambda c: (-rank(c), c))
    if top is not None:
        kept = kept[:top]
    dropped = len(by_cat) - len(kept)
    by_cat = {cat: by_cat[cat] for cat in kept}

    layers: Dict[str, List[str]] = defaultdict(list)
    for cat in by_cat:
        layers[_component(cat)].append(cat)

    t_min = min(r["ts_s"] for r in records)
    t_max = max(r["ts_s"] + r["dur_s"] for r in records)
    contexts = sorted({r["ctx"] for r in records})

    lines = [
        f"trace: {len(records)} spans, {len(by_cat) + dropped} categories, "
        f"{len(contexts)} context(s), simulated window "
        f"{t_min:.3f}s .. {t_max:.3f}s",
        "",
        f"{'layer':12s} {'phase':28s} {'spans':>7s} {'total (s)':>11s} "
        f"{'mean (ms)':>11s} {'max (ms)':>11s}",
    ]
    for layer in sorted(layers, key=lambda l: -sum(rank(c) for c in layers[l])):
        for i, cat in enumerate(
            sorted(layers[layer], key=lambda c: (-rank(c), c))
        ):
            durations = [r["dur_s"] for r in by_cat[cat]]
            lines.append(
                f"{layer if i == 0 else '':12s} {cat:28s} {len(durations):>7d} "
                f"{sum(durations):>11.3f} "
                f"{1000 * sum(durations) / len(durations):>11.3f} "
                f"{1000 * max(durations):>11.3f}"
            )
    if dropped:
        lines.append(f"... {dropped} more categories (raise --top)")
    return "\n".join(lines)


# -- time-series JSONL ---------------------------------------------------------


def timeseries_jsonl(
    tagged_entries: Iterable[Tuple[int, tuple]],
    context_labels: Optional[Mapping[int, str]] = None,
) -> str:
    """One JSON object per TSDB log entry, in record order.

    Samples: ``{"kind": "sample", "name", "labels", "ts", "value",
    "ctx"}``; alert transitions: ``{"kind": "alert", "alert", "from",
    "to", "severity", "ts", "value", "ctx"}``. Record order is per-ctx
    monotonic in sim time (the sampler appends as it scrapes).
    """
    context_labels = dict(context_labels or {})
    lines = []
    for cid, (kind, name, labels, ts, value) in tagged_entries:
        ctx = context_labels.get(cid, f"context-{cid}")
        if kind == "alert":
            row = dict(labels)
            row.update(
                {"kind": "alert", "alert": name, "ts": ts, "value": value, "ctx": ctx}
            )
        else:
            row = {
                "kind": "sample",
                "name": name,
                "labels": dict(labels),
                "ts": ts,
                "value": value,
                "ctx": ctx,
            }
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_timeseries_jsonl(text: str) -> List[dict]:
    """Strict checker for the ``--timeseries-out`` JSONL stream.

    Raises :class:`ValueError` on malformed lines, missing fields,
    non-finite numbers, unknown kinds, or per-context timestamp
    regressions (samples must be monotonic within a context).
    """
    records: List[dict] = []
    last_ts: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: not JSON: {exc}") from None
        if not isinstance(row, dict):
            raise ValueError(f"line {lineno}: not an object")
        kind = row.get("kind")
        if kind == "sample":
            required = ("name", "labels", "ts", "value", "ctx")
        elif kind == "alert":
            required = ("alert", "from", "to", "severity", "ts", "value", "ctx")
        else:
            raise ValueError(f"line {lineno}: unknown kind {kind!r}")
        for field in required:
            if field not in row:
                raise ValueError(f"line {lineno}: missing {field!r}")
        for field in ("ts", "value"):
            if not isinstance(row[field], (int, float)) or not math.isfinite(row[field]):
                raise ValueError(f"line {lineno}: bad {field!r}: {row[field]!r}")
        if kind == "sample" and not isinstance(row["labels"], dict):
            raise ValueError(f"line {lineno}: labels must be an object")
        ctx = row["ctx"]
        if row["ts"] < last_ts.get(ctx, float("-inf")):
            raise ValueError(
                f"line {lineno}: timestamp regression in context {ctx!r}"
            )
        last_ts[ctx] = row["ts"]
        records.append(row)
    return records


# -- eWAPA-style WASI latency report -------------------------------------------


def render_wasi(text: str, top: Optional[int] = None, sort: str = "total") -> str:
    """Per-WASI-call latency table over Prometheus exposition text.

    Counts and bytes are measured (``repro_wasi_calls_total``,
    ``repro_wasi_bytes_total``); the latency column applies the modeled
    per-call/per-byte costs in :mod:`repro.obs.profile` — eWAPA-style
    attribution of where hostcall time goes, minus the eBPF probes.
    """
    from repro.obs import profile

    families = parse_prometheus_text(text)
    calls: Dict[Tuple[str, ...], float] = {}
    bytes_fam: Dict[Tuple[str, ...], float] = {}
    for (sample, labels), value in families.get(
        "repro_wasi_calls_total", {"samples": {}}
    )["samples"].items():
        if sample == "repro_wasi_calls_total":
            calls[tuple(v for _, v in labels)] = value
    for (sample, labels), value in families.get(
        "repro_wasi_bytes_total", {"samples": {}}
    )["samples"].items():
        if sample == "repro_wasi_bytes_total":
            bytes_fam[tuple(v for _, v in labels)] = value
    rows = profile.wasi_report(
        {"repro_wasi_calls_total": calls, "repro_wasi_bytes_total": bytes_fam}
    )
    # The preview1 shim materializes a zero series for every function a
    # module imports; only rows the guest actually exercised carry
    # information.
    rows = [r for r in rows if r["calls"] or r["bytes"]]
    if not rows:
        return "wasi: no repro_wasi_calls_total samples (telemetry off?)"

    def rank(row: dict) -> float:
        if sort == "count":
            return row["calls"]
        if sort == "mean":
            return row["mean_ns"]
        return row["total_ns"]

    rows.sort(key=lambda r: (-rank(r), r["func"]))
    shown = rows if top is None else rows[:top]
    lines = [
        f"wasi: {len(rows)} hostcalls, "
        f"{sum(r['calls'] for r in rows):.0f} calls, "
        f"{sum(r['bytes'] for r in rows):.0f} bytes moved (modeled latency)",
        "",
        f"{'hostcall':22s} {'calls':>9s} {'bytes':>11s} "
        f"{'total (us)':>11s} {'mean (ns)':>10s} {'share':>7s}",
    ]
    for r in shown:
        lines.append(
            f"{r['func']:22s} {r['calls']:>9.0f} {r['bytes']:>11.0f} "
            f"{r['total_ns'] / 1000:>11.2f} {r['mean_ns']:>10.1f} "
            f"{100 * r['share']:>6.1f}%"
        )
    if len(shown) < len(rows):
        lines.append(f"... {len(rows) - len(shown)} more hostcalls (raise --top)")
    return "\n".join(lines)


# -- ASCII dashboard (repro monitor) -------------------------------------------

_SPARKS = "▁▂▃▄▅▆▇█"


def _sparkline(values: List[float], width: int) -> str:
    if not values:
        return ""
    if len(values) > width:
        # Downsample: max of each chunk (spikes must stay visible).
        chunk = len(values) / width
        values = [
            max(values[int(i * chunk): max(int((i + 1) * chunk), int(i * chunk) + 1)])
            for i in range(width)
        ]
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return "".join(_SPARKS[int((v - lo) / span * (len(_SPARKS) - 1))] for v in values)


def render_dashboard(
    records: List[dict], series: Optional[str] = None, width: int = 60
) -> str:
    """ASCII dashboard over parsed ``--timeseries-out`` records.

    One sparkline per (context, series) with min/mean/max/last, plus an
    alert-transition timeline. ``series`` filters by name prefix
    (default: the ``repro_monitor_`` collector gauges + alert states).
    """
    prefix = series if series is not None else "repro_monitor_"
    grouped: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    order: List[Tuple[str, str]] = []
    alerts: List[dict] = []
    for row in records:
        if row["kind"] == "alert":
            alerts.append(row)
            continue
        if not row["name"].startswith(prefix):
            continue
        label_s = ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
        name = f"{row['name']}{{{label_s}}}" if label_s else row["name"]
        key = (row["ctx"], name)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append((row["ts"], row["value"]))
    if not grouped and not alerts:
        return f"monitor: no series matching {prefix!r}"
    lines: List[str] = []
    last_ctx = None
    for ctx, name in order:
        if ctx != last_ctx:
            lines.append(f"── {ctx} " + "─" * max(0, width - len(ctx) - 4))
            last_ctx = ctx
        points = grouped[(ctx, name)]
        values = [v for _, v in points]
        lines.append(f"  {name}")
        lines.append(
            f"    {_sparkline(values, width)}  "
            f"min={min(values):g} mean={sum(values) / len(values):.4g} "
            f"max={max(values):g} last={values[-1]:g}"
        )
    if alerts:
        lines.append("── alerts " + "─" * max(0, width - 10))
        for row in alerts:
            lines.append(
                f"  [{row['ts']:9.3f}s] {row['alert']:28s} "
                f"{row['from']} → {row['to']} ({row['severity']})"
            )
    return "\n".join(lines)


# -- CLI glue ------------------------------------------------------------------


def write_outputs(
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    timeseries_out: Optional[str] = None,
    profile_out: Optional[str] = None,
) -> List[str]:
    """Write the process-wide telemetry to files; returns paths written.

    ``trace_out`` ending in ``.jsonl`` selects the JSONL event log,
    anything else the Chrome trace JSON (with counter tracks when
    sampling ran). ``metrics_out`` gets the default registry in
    Prometheus text format, ``timeseries_out`` the TSDB log as JSONL,
    and ``profile_out`` the collapsed-stack interpreter profile.
    """
    from repro import obs
    from repro.obs import profile, timeseries

    written: List[str] = []
    if trace_out:
        spans = obs.tagged_spans()
        labels = obs.context_labels()
        path = pathlib.Path(trace_out)
        if path.suffix == ".jsonl":
            path.write_text(jsonl_events(spans, labels))
        else:
            counters = timeseries.counter_track_samples() or None
            path.write_text(
                json.dumps(chrome_trace(spans, labels, counters)) + "\n"
            )
        written.append(str(path))
    if metrics_out:
        path = pathlib.Path(metrics_out)
        path.write_text(prometheus_text(obs.default_registry()))
        written.append(str(path))
    if timeseries_out:
        path = pathlib.Path(timeseries_out)
        path.write_text(
            timeseries_jsonl(
                timeseries.default_db().tagged_entries(), obs.context_labels()
            )
        )
        written.append(str(path))
    if profile_out:
        path = pathlib.Path(profile_out)
        path.write_text(profile.collapsed())
        written.append(str(path))
    return written
