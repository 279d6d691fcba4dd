#!/usr/bin/env python3
"""Smoke-size self-test of the platform benchmark.

Runs every workload once untraced and once traced at smoke size (one repetition,
on a smaller input where the workload allows) and asserts that:
  * the run's correctness checks pass and no operation failed;
  * every metric BENCHMARK.json declares is printed with its declared unit,
    and the workload's report metrics (events_per_s, legit_denied_pct, ...)
    are printed too;
  * a traced run writes a Chrome trace-event file that parses and holds spans.

Usage, from the root of a checkout:  python3 perfbench/selftest.py
Exits 0 when every check passes.
"""

import json
import sys

sys.dont_write_bytecode = True
import run as bench  # noqa: E402  (perfbench/run.py)

# End-to-end metrics the report prints beside the gated ones in BENCHMARK.json.
REPORT_METRICS = {
    "doi_live": ("events_per_s", "legit_denied_pct", "abuse_served_pct", "failed_pct"),
    "sms_pump_live": ("events_per_s", "legit_denied_pct", "abuse_served_pct", "failed_pct"),
    "soc_detect": ("sessions_per_s", "detect_f1", "failed_pct"),
    "scale_sharded": ("events_per_s", "failed_pct"),
}


def printed_metrics(lines):
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = parts[3]
    return out


def check(workload, trace):
    failures = []
    lines, result, trace_file = bench.run(workload, 1, 1, trace, smoke=True, echo=False)
    printed = printed_metrics(lines)
    for name, unit in bench.declared_metrics(trace).items():
        if printed.get(name) != unit:
            failures.append(f"metric {name} not printed with unit {unit}")
    if not trace:
        for name in REPORT_METRICS[workload]:
            if name not in printed:
                failures.append(f"report metric {name} not printed")
    if result["correct"] is not True:
        failures += [line for line in lines if line.startswith("problem")] or ["not correct"]
    if result["failed"] != 0 or result["attempted"] < 1:
        failures.append(f"attempted {result['attempted']}, failed {result['failed']}")
    if trace:
        try:
            events = json.loads(trace_file.read_text())["traceEvents"]
            if not any(e.get("ph") == "X" for e in events):
                failures.append("Chrome trace holds no spans")
        except (OSError, ValueError, KeyError) as err:
            failures.append(f"Chrome trace unreadable: {err}")
    return failures


def main():
    failed = False
    for workload in bench.WORKLOADS:
        for trace in (False, True):
            failures = check(workload, trace)
            status = "ok" if not failures else "FAILED"
            print(f"{workload} trace={int(trace)}: {status}", flush=True)
            for failure in failures:
                print(f"  {failure}")
            failed = failed or bool(failures)
    print("SELFTEST: " + ("FAILED" if failed else "OK"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
