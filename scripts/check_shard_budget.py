#!/usr/bin/env python3
"""CI perf smoke: fail if process-level scale-out stops scaling.

bench_service's multi-process mode forks this repo's service into a
key-manager process plus {1, 2} single-threaded worker-shard processes and
drives a weakly-scaled workload (one full batch of clients per shard)
through the front-end Router over real sockets; each point's throughput is
the median of several timed waves (quartiles alongside in the JSON), so
speedup_2_shards is a ratio of medians. On a multi-core host the
shards compute concurrently, so aggregate 2-shard throughput must reach
min_speedup_2_shards x the single-shard point — a breach means the scale-out
path serialized somewhere (the router collecting before every shard was
sent its wave, a worker inheriting the parent's thread pool, framing
overhead swamping evaluation).

The ratio is only meaningful when the recorded host actually has cores for
the shards to land on: below min_cores_to_enforce (e.g. a single-core
container, where two shard processes timeshare one CPU) the script prints
the measurement and passes. The bench records host_cores in the JSON, so
the gate decision is reproducible from the artifact alone.

Usage: check_shard_budget.py [BENCH_service.json]

Budgets live in scripts/shard_budget.json; update them deliberately (with a
rationale in the PR) when the deployment shape changes.
"""

import json
import pathlib
import sys


def main() -> int:
    path = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                        else "BENCH_service.json")
    budget_path = pathlib.Path(__file__).resolve().parent / "shard_budget.json"
    budgets = json.loads(budget_path.read_text())
    record = json.loads(path.read_text())

    mp = record.get("multiprocess")
    if mp is None:
        print(f"FAIL: no 'multiprocess' section in {path} "
              "(bench_service predates the multi-process mode?)")
        return 1

    failures = []
    if not mp.get("ok", False):
        failures.append("the multi-process sweep itself reported failure")

    sweep = {p["shards"]: p for p in mp.get("sweep", [])}
    for shards in (1, 2):
        point = sweep.get(shards)
        if point is None:
            failures.append(f"missing the {shards}-shard sweep point")
            continue
        if point["requests_ok"] != point["clients"]:
            failures.append(
                f"{shards}-shard point: {point['requests_ok']} of "
                f"{point['clients']} requests ok (all must succeed)")
        print(f"{shards} shard(s): {point['clients']} clients, "
              f"{point['blocks']} blocks, {point['blocks_per_s']:.2f} "
              f"blocks/s, {point['requests_ok']}/{point['clients']} ok")

    speedup = mp.get("speedup_2_shards")
    floor = budgets["min_speedup_2_shards"]
    host_cores = mp.get("host_cores", 0)
    min_cores = budgets["min_cores_to_enforce"]
    if speedup is None:
        failures.append("missing speedup_2_shards")
    elif host_cores < min_cores:
        print(f"speedup_2_shards={speedup:.2f}x on a {host_cores}-core host: "
              f"floor {floor}x NOT enforced (needs >= {min_cores} cores — "
              "two shard processes would just timeshare one CPU)")
    else:
        status = "OK" if speedup >= floor else "REGRESSED"
        print(f"speedup_2_shards={speedup:.2f}x "
              f"(floor {floor}x, {host_cores} cores) {status}")
        if speedup < floor:
            failures.append(
                f"2-shard aggregate throughput is {speedup:.2f}x the "
                f"single-shard point; the scale-out floor is {floor}x")

    if failures:
        print("\nFAIL:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nshard scale-out budget OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
