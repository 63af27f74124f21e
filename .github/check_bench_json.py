#!/usr/bin/env python3
"""Fail on schema drift in a live-bench JSON file (crates/bench/src/live.rs),
and on a full run (`quick` false) that records a failed gate.

usage: check_bench_json.py BENCH_x.json [...]
"""
import json
import sys

ENVELOPE = ["bench", "mode", "quick", "host", "config", "results", "gates"]
HOST = ["uring", "shm", "sockbuf_effective"]
GATE = ["name", "value", "op", "bound", "pass"]

for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    assert list(doc) == ENVELOPE, f"{path}: envelope keys {list(doc)}"
    assert list(doc["host"]) == HOST, f"{path}: host keys {list(doc['host'])}"
    assert doc["results"], f"{path}: no rows"
    halves = [r["sink"] for r in doc["results"]]
    halves += [r["source"] for r in doc["results"] if r["source"] is not None]
    key_sets = {tuple(h) for h in halves}
    assert len(key_sets) == 1, f"{path}: {len(key_sets)} report key sets"
    for r in doc["results"]:
        assert list(r)[-3:] == ["runs", "source", "sink"], f"{path}: row tail {list(r)[-3:]}"
    for g in doc["gates"]:
        assert list(g) == GATE, f"{path}: gate keys {list(g)}"
    if not doc["quick"]:
        failed = [g["name"] for g in doc["gates"] if g["pass"] is not True]
        assert not failed, f"{path}: full run with failed gates {failed}"
    print(f"{path}: {len(doc['results'])} rows, {len(doc['gates'])} gates, schema ok")
