#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file produced by --trace-out.

Checks, in order:

 1. The file is well-formed JSON: a top-level object whose
    "traceEvents" member is a list.
 2. Every event is an object with a string "name" and a one-char "ph";
    only "X" (complete) and "M" (metadata) events are expected.
 3. "X" events carry numeric non-negative "ts"/"dur" and integer
    "pid"/"tid"; "args", when present, maps strings to strings.
 4. "M" events are thread_name rows naming each lane exactly once per
    (pid, tid), or process_name rows naming each pid exactly once.
 5. Merged multi-process traces (prover-worker spans imported across
    the fork) carry a process_name row for every pid that owns "X"
    events — a foreign pid without one renders as an anonymous track.
 6. Spans nest properly per lane: since every span comes from an RAII
    scope on one thread, two spans on the same (pid, tid) lane either
    are disjoint or one fully contains the other. Partial overlap is a
    recorder bug. Lanes are keyed per process, so imported worker spans
    are swept independently of the parent's threads.
 7. With --require CAT/NAME (repeatable), every file holds at least one
    "X" event of that category and name.

Exit status: 0 clean, 1 lint errors, 2 cannot read/parse the input.

Usage: trace_lint.py [--require CAT/NAME]... FILE [FILE...]
"""

import json
import sys


def lint_events(path, doc, errors):
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        errors.append(f"{path}: top level must be an object with a "
                      "'traceEvents' list")
        return

    lanes = {}  # (pid, tid) -> list of (ts, dur, name)
    named_lanes = set()
    named_pids = set()
    event_pids = set()
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"{path}: event {i}"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        name, ph = ev.get("name"), ev.get("ph")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing or empty 'name'")
            continue
        if ph == "M":
            if name == "process_name":
                pid = ev.get("pid")
                if not isinstance(pid, int):
                    errors.append(f"{where}: process_name needs an "
                                  "integer pid")
                    continue
                if pid in named_pids:
                    errors.append(f"{where}: pid {pid} named twice")
                named_pids.add(pid)
                args = ev.get("args")
                if not (isinstance(args, dict)
                        and isinstance(args.get("name"), str)):
                    errors.append(f"{where}: process_name needs args.name")
                continue
            if name != "thread_name":
                errors.append(f"{where}: unexpected metadata row '{name}'")
                continue
            key = (ev.get("pid"), ev.get("tid"))
            if key in named_lanes:
                errors.append(f"{where}: lane {key} named twice")
            named_lanes.add(key)
            args = ev.get("args")
            if not (isinstance(args, dict) and isinstance(args.get("name"), str)):
                errors.append(f"{where}: thread_name needs args.name")
            continue
        if ph != "X":
            errors.append(f"{where} ('{name}'): unexpected ph {ph!r}")
            continue
        ts, dur = ev.get("ts"), ev.get("dur")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where} ('{name}'): bad ts {ts!r}")
            continue
        if not isinstance(dur, (int, float)) or dur < 0:
            errors.append(f"{where} ('{name}'): bad dur {dur!r}")
            continue
        if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
            errors.append(f"{where} ('{name}'): pid/tid must be integers")
            continue
        args = ev.get("args", {})
        if not isinstance(args, dict) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in args.items()):
            errors.append(f"{where} ('{name}'): args must map strings "
                          "to strings")
        event_pids.add(ev["pid"])
        lanes.setdefault((ev["pid"], ev["tid"]), []).append((ts, dur, name))

    # Multi-process merge: every pid owning spans must be introduced by a
    # process_name row, or the viewer shows an anonymous track. (Traces
    # with process_name rows opt into the check; a bare single-process
    # trace without any remains valid.)
    if named_pids:
        for pid in sorted(event_pids - named_pids):
            errors.append(f"{path}: pid {pid} has spans but no "
                          "process_name metadata row")

    # Nesting: sweep each lane by (start, -dur) so an enclosing span sorts
    # before the spans it contains; a stack then only ever sees proper
    # containment. Anything else partially overlaps.
    for lane, spans in sorted(lanes.items()):
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []  # (end, name)
        for ts, dur, name in spans:
            end = ts + dur
            while stack and ts >= stack[-1][0]:
                stack.pop()
            if stack and end > stack[-1][0]:
                errors.append(
                    f"{path}: lane {lane}: span '{name}' [{ts}, {end}) "
                    f"partially overlaps '{stack[-1][1]}' (ends "
                    f"{stack[-1][0]}) — spans must nest")
            stack.append((end, name))


def main(argv):
    args, required = argv[1:], []
    while len(args) >= 2 and args[0] == "--require":
        required.append(args[1])
        args = args[2:]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = []
    total = 0
    for path in args:
        try:
            with open(path, "r", encoding="utf-8") as fp:
                doc = json.load(fp)
        except (OSError, json.JSONDecodeError) as err:
            print(f"trace_lint: {path}: {err}", file=sys.stderr)
            return 2
        lint_events(path, doc, errors)
        if isinstance(doc, dict) and isinstance(doc.get("traceEvents"), list):
            spans = [ev for ev in doc["traceEvents"]
                     if isinstance(ev, dict) and ev.get("ph") == "X"]
            total += len(spans)
            seen = {f"{ev.get('cat')}/{ev.get('name')}" for ev in spans}
            for want in required:
                if want not in seen:
                    errors.append(f"{path}: no '{want}' span")
    for message in errors:
        print(f"trace_lint: {message}", file=sys.stderr)
    if errors:
        return 1
    print(f"trace_lint: OK ({total} span(s) across {len(args)} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
