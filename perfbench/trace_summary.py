"""Self time per layer from the runner's span JSONL.

A span's self time is its duration minus the part of that interval its
child spans cover. A span's layer is its name without the last dotted
component: "sim.service.handle_line" belongs to "sim.service",
"ckpt.content_hash" to "ckpt".
"""

import json
from collections import defaultdict


def load_spans(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def layer_of(name):
    return name.rsplit(".", 1)[0] if "." in name else name


def covered_ns(start, end, intervals):
    """Length of the union of `intervals` clipped to [start, end]."""
    clipped = sorted((max(start, s), min(end, e)) for s, e in intervals
                     if min(end, e) > max(start, s))
    total = 0
    cursor = start
    for s, e in clipped:
        s = max(s, cursor)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times(spans):
    """Maps span id to self time in nanoseconds."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start_ns"], span["end_ns"]))
    out = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        out[span["id"]] = (end - start) - covered_ns(start, end,
                                                     children[span["id"]])
    return out


def layer_self_times(spans):
    """Maps layer name to (self time in ns, span count)."""
    per_span = self_times(spans)
    totals = defaultdict(lambda: [0, 0])
    for span in spans:
        entry = totals[layer_of(span["name"])]
        entry[0] += per_span[span["id"]]
        entry[1] += 1
    return {layer: tuple(entry) for layer, entry in totals.items()}


def format_summary(spans, metrics):
    lines = ["self time per layer (traced run):"]
    layers = layer_self_times(spans)
    for layer, (ns, count) in sorted(layers.items(), key=lambda kv: -kv[1][0]):
        lines.append(f"  {layer:<24} {ns / 1e6:12.3f} ms  {count:8d} spans")
    lines.append("per-layer metrics:")
    for name, metric in sorted(metrics.items()):
        lines.append(f"  {name:<36} {metric['value']:16.6g} {metric['unit']}")
    return "\n".join(lines)
