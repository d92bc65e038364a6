"""Self-contained telemetry demo: serve a tiny model with tracing at 100%.

``python -m repro.obs [trace.jsonl]`` builds a small learned model, serves a
handful of dynamic-batched requests through a 2-worker pool with every
request traced, then prints the server's metrics scrape and the span tree of
one request and writes the full trace as JSON lines (default
``obs_trace.jsonl``) — the artifact the CI serve-smoke job uploads.
"""

from __future__ import annotations

import json
import sys

import numpy as np


def _make_model(base_classes: int = 4, shots_per_class: int = 4,
                image_shape=(3, 16, 16)):
    from ..core import OFSCIL, OFSCILConfig

    backbone = "mobilenetv2_x4_tiny"
    model = OFSCIL.from_registry(backbone, OFSCILConfig(backbone=backbone),
                                 seed=0)
    model.freeze_feature_extractor()
    rng = np.random.default_rng(42)
    shots = rng.standard_normal(
        (base_classes * shots_per_class, *image_shape)).astype(np.float32)
    for class_id in range(base_classes):
        start = class_id * shots_per_class
        model.learn_class(shots[start:start + shots_per_class], class_id)
    return model, shots


def _print_tree(spans, parent_id=None, depth=0):
    by_parent = {}
    for span in spans:
        by_parent.setdefault(span.get("parent_id"), []).append(span)
    for span in sorted(by_parent.get(parent_id, []),
                       key=lambda s: s["start_s"]):
        print(f"{'  ' * depth}{span['name']}  "
              f"[{span['process']}]  {span['duration_s'] * 1e3:.2f} ms  "
              f"{span['status']}")
        _print_tree(spans, span["span_id"], depth + 1)


def main(argv=None) -> int:
    from .trace import JsonlSpanExporter, read_jsonl_spans
    argv = sys.argv[1:] if argv is None else argv
    path = argv[0] if argv else "obs_trace.jsonl"

    model, _shots = _make_model()
    rng = np.random.default_rng(7)
    queries = rng.standard_normal((6, 3, 16, 16)).astype(np.float32)

    with model.serve(2, trace_sample=1.0,
                     trace_exporter=JsonlSpanExporter(path)) as server:
        labels = [server.submit(query).result(timeout=60.0)
                  for query in queries]
        print(f"served {len(labels)} traced requests -> labels {labels}")
        print()
        print("metrics scrape:")
        print(json.dumps(server.stats.scrape(), indent=2))

    spans = read_jsonl_spans(path)
    roots = [span for span in spans if span.get("parent_id") is None]
    trace = [span for span in spans
             if span["trace_id"] == roots[0]["trace_id"]]
    print()
    print(f"{len(spans)} spans from {len(roots)} traces written to {path}; "
          f"trace {roots[0]['trace_id']}:")
    _print_tree(trace)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
