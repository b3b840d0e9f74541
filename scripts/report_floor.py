#!/usr/bin/env python3
"""Microseconds per store line at each layer of ``befs report --campaign``.

The store is perfbench's report_log store, built by its own ReportLog
workload at seed 1: four campaigns, c0 to c3, of 1000 in-memory servers
each in the paper's random-IP mix, written by ``befs inspect``. The report
reads campaign c0. Rows:

  read                          iterate every line through a text handle
  recognize, other campaigns    the campaign-text test and the recognizer
                                on a line of another campaign, which load
                                then drops
  scan_once, other campaigns    the C JSON scanner on those lines, which is
                                what load paid for them before the recognizer
  campaign text, the campaign   the campaign-text test on a line of c0
  scan_once, the campaign       the C JSON scanner on a line of c0
  decode, the campaign          decode_record on an object of c0
  aggregate, per record         aggregate over c0's records
  load --campaign, per line     RecordStore.load(campaign="c0",
                                decode=decode_record) over every line

It also prints the first build of the recognizer, which a fresh process
pays once, on its first line of another campaign. Per-layer spans cannot
give this split: the tracer counts json.loads calls, and load makes none
for a well-formed line. The process pins itself to one CPU, as perfbench
does; each row is the median over batches, and the rows take turns within
a batch.

    PYTHONPATH=src python3 scripts/report_floor.py --batches 20
"""

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from befs import report  # noqa: E402
from workloads import ReportLog  # noqa: E402

SEED = 1  # perfbench's first seed
CAMPAIGN = "c0"


def pin_to_one_cpu() -> None:
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def us_per_item(step, items: int) -> float:
    start = time.perf_counter()
    step()
    return (time.perf_counter() - start) / items * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--batches", type=int, default=20)
    args = parser.parse_args()
    pin_to_one_cpu()

    with tempfile.TemporaryDirectory() as directory:
        ReportLog(SEED, Path(directory)).set_up()
        store = Path(directory) / "store.jsonl"
        lines = store.read_text(encoding="utf-8").splitlines(keepends=True)
        start = time.perf_counter()
        recognize = report._recognizer()
        build_ms = (time.perf_counter() - start) * 1e3
        tag = '"campaign":"%s"' % CAMPAIGN
        kept = [line for line in lines if tag in line]
        other = [line for line in lines if tag not in line]
        if not all(recognize(line) for line in other):
            raise SystemExit("a line of another campaign is not recognized")
        scan_value = report._scan_value
        objects = [scan_value(line, 0)[0] for line in kept]
        records = [report.decode_record(data) for data in objects]
        scans, inspections = report.scans_and_inspections(records)

        def read() -> None:
            with store.open(encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
                for _ in fh:
                    pass

        def recognize_other() -> None:
            for line in other:
                tag not in line and recognize(line)

        def scan(group: list) -> None:
            for line in group:
                scan_value(line, 0)

        def campaign_text() -> None:
            for line in kept:
                tag in line

        def decode() -> None:
            for data in objects:
                report.decode_record(data)

        rows = {
            "read": (read, len(lines)),
            "recognize, other campaigns": (recognize_other, len(other)),
            "scan_once, other campaigns": (lambda: scan(other), len(other)),
            "campaign text, the campaign": (campaign_text, len(kept)),
            "scan_once, the campaign": (lambda: scan(kept), len(kept)),
            "decode, the campaign": (decode, len(kept)),
            "aggregate, per record": (
                lambda: report.aggregate(scans, inspections, campaign=CAMPAIGN), len(records)),
            "load --campaign, per line": (
                lambda: report.RecordStore(store).load(campaign=CAMPAIGN,
                                                       decode=report.decode_record), len(lines)),
        }
        for step, items in rows.values():  # warm-up
            us_per_item(step, items)
        samples = {name: [] for name in rows}
        for _ in range(args.batches):
            for name, (step, items) in rows.items():
                samples[name].append(us_per_item(step, items))

    us = {name: statistics.median(values) for name, values in samples.items()}
    print("us per line, median of %d batches; %d lines, %d of campaign %s; one CPU"
          % (args.batches, len(lines), len(kept), CAMPAIGN))
    for name, value in us.items():
        print("%-30s %8.2f" % (name, value))
    print("%-30s %8.2f" % ("load --campaign, ms per call", us["load --campaign, per line"]
                           * len(lines) / 1e3))
    print("%-30s %8.2f" % ("recognizer's first build, ms", build_ms))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
