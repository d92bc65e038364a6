#!/usr/bin/env python3
"""Sharded multi-worker serving of an O-FSCIL model (`repro.serve`).

Production deployment story on top of the batched runtime: the trained model
is snapshotted into a picklable plan + prototype state, replicated across a
pool of worker processes, and served behind a dynamic batcher that sends a
single-sample request to an idle shard at once and coalesces requests into
micro-batches only while every shard is busy.  The demo

1. briefly trains a tiny model and learns the base-session prototypes,
2. starts a `Server` with N worker shards (`model.serve(N)`),
3. checks bit-for-bit parity of sharded vs single-process prediction,
4. measures synchronous batch throughput at 1 worker vs N workers,
5. floods the dynamic batcher with single-sample requests and prints the
   coalesced batch-size histogram and the request-latency percentiles,
6. demonstrates admission control: a server with a tiny queue budget sheds
   the overflow of a burst with `ServerOverloaded` instead of queueing
   unboundedly,
7. learns a new class online through the server (prototypes broadcast to
   every worker replica) and verifies parity again.

Tensor traffic between the coordinator and the workers rides zero-copy
shared-memory rings (see `repro.serve.transport`); a worker killed
mid-flight fails fast and the pool routes around it.

Run:  python examples/serving.py [--workers 4] [--epochs 6]
"""

import argparse
import time

import numpy as np

from repro.core import OFSCIL, OFSCILConfig, PretrainConfig, pretrain
from repro.data import build_synthetic_fscil
from repro.serve import Server, ServerOverloaded


def batch_rate(model: OFSCIL, num_workers: int, images: np.ndarray) -> float:
    """Synchronous-path serving throughput at ``num_workers`` shards."""
    with Server(model, num_workers=num_workers) as server:
        server.predict(images[:64])                 # warm plans and caches
        start = time.perf_counter()
        server.predict(images)
        return images.shape[0] / (time.perf_counter() - start)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backbone", default="mobilenetv2_x4_tiny")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--requests", type=int, default=192,
                        help="single-sample requests for the batcher flood")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print("=== Train briefly and learn the base session ===")
    benchmark = build_synthetic_fscil("test", seed=args.seed)
    model = OFSCIL.from_registry(args.backbone,
                                 OFSCILConfig(backbone=args.backbone),
                                 seed=args.seed)
    pretrain(model.backbone, model.fcr, benchmark.base_train,
             num_classes=benchmark.protocol.base_classes,
             config=PretrainConfig(epochs=args.epochs, batch_size=32,
                                   learning_rate=0.12, seed=args.seed))
    model.freeze_feature_extractor()
    model.learn_base_session(benchmark.base_train)
    predictor = model.runtime_predictor()
    queries = benchmark.test.images

    print(f"\n=== Serve with {args.workers} worker shard(s) ===")
    with model.serve(num_workers=args.workers) as server:
        labels = server.predict(queries)
        exact = bool(np.array_equal(labels, predictor.predict(queries)))
        print(f"sharded vs single-process predictions bit-for-bit: {exact}")

        print("\n--- dynamic batcher: single-sample request flood ---")
        start = time.perf_counter()
        futures = [server.submit(image)
                   for image in queries[:args.requests]]
        results = [future.result(timeout=300) for future in futures]
        elapsed = time.perf_counter() - start
        stats = server.stats_dict()
        print(f"{len(results)} requests in {elapsed:.2f}s "
              f"({len(results) / elapsed:.0f} samples/s) | "
              f"batch-size histogram: {stats['batch_size_histogram']} | "
              f"max queue depth: {stats['max_queue_depth']}")
        print(f"batch latency p50/p99: {stats['batch_latency_p50_ms']}/"
              f"{stats['batch_latency_p99_ms']} ms | "
              f"shed rate: {stats['shed_rate']:.3f}")

        print("\n--- online learning through the server ---")
        session = benchmark.sessions[0]
        class_id = int(session.class_ids[0])
        mask = session.support.labels == class_id
        server.learn_class(session.support.images[mask], class_id)
        versions = [record["prototype_version"]
                    for record in server.worker_stats()]
        print(f"learned class {class_id}; memory version "
              f"{model.memory.version} acked by workers: {versions}")
        exact = bool(np.array_equal(server.predict(queries),
                                    predictor.predict(queries)))
        print(f"parity after online learning: {exact}")

    print("\n=== Admission control: bounded queue sheds the overflow ===")
    with Server(model, num_workers=1, max_pending=16) as server:
        admitted, shed = [], 0
        for image in queries[:64]:
            try:
                admitted.append(server.submit(image))
            except ServerOverloaded:
                shed += 1
        for future in admitted:
            future.result(timeout=300)
        print(f"burst of 64 with max_pending=16: {len(admitted)} admitted, "
              f"{shed} shed (recorded shed rate "
              f"{server.stats.as_dict()['shed_rate']:.3f})")

    print("\n=== Throughput scaling: 1 worker vs "
          f"{args.workers} workers ===")
    single = batch_rate(model, 1, queries)
    multi = batch_rate(model, args.workers, queries)
    print(f"  1 worker : {single:7.0f} samples/s")
    print(f"  {args.workers} workers: {multi:7.0f} samples/s "
          f"({multi / single:.2f}x)")
    print("(scaling needs real cores; see BENCH_serve.json for the "
          "recorded trajectory)")


if __name__ == "__main__":
    main()
