#!/usr/bin/env python3
"""Fail if docs/OPERATIONS.md misses a config field or env knob, or keeps a
row for one that no longer exists.

Checks, against the actual source tree:
  * every field of core::ErmsConfig        (src/core/erms.h)
  * every field of judge::Thresholds       (src/judge/thresholds.h)
  * every field of AccessPredictor::Config (src/judge/predictor.h)
  * every ERMS_* environment variable referenced anywhere in
    src/, bench/, examples/ or tests/

Each must appear in docs/OPERATIONS.md as `name` (backticked). Conversely,
every table row whose first cell is a backticked name, under the config
and environment-variable headings (TABLES below), must name a live field
of that section's struct or a live ERMS_* knob. Stdlib only; the struct
parser is deliberately dumb — it scans the brace-balanced struct body for
`type name = default;` / `type name;` member lines, which is all these
aggregate config structs contain.
"""
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OPS = REPO / "docs" / "OPERATIONS.md"

MEMBER_RE = re.compile(
    r"^\s*(?:const\s+)?[A-Za-z_][\w:<>,\s]*?[&\s]([A-Za-z_]\w*)\s*(?:=[^;]+)?;\s*$"
)


def struct_body(text, struct_name, path):
    m = re.search(rf"struct\s+{struct_name}\s*\{{", text)
    if not m:
        sys.exit(f"error: struct {struct_name} not found in {path}")
    depth, start = 1, m.end()
    pos = start
    while depth > 0:
        if pos >= len(text):
            sys.exit(f"error: unbalanced braces for {struct_name} in {path}")
        if text[pos] == "{":
            depth += 1
        elif text[pos] == "}":
            depth -= 1
        pos += 1
    return text[start : pos - 1]


def fields_of(header, struct_name):
    body = struct_body(header.read_text(), struct_name, header)
    # Strip comments and nested braces (method bodies like valid()).
    body = re.sub(r"//[^\n]*", "", body)
    flat, depth = [], 0
    for ch in body:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif depth == 0:
            flat.append(ch)
    names = []
    for line in "".join(flat).splitlines():
        decl = line.split("=", 1)[0]  # a default like sim::hours(72.0) is fine
        if "(" in decl or ")" in decl:  # methods/constructors, not members
            continue
        m = MEMBER_RE.match(line)
        if m:
            names.append(m.group(1))
    if not names:
        sys.exit(f"error: no members parsed for {struct_name} in {header}")
    return names


def env_knobs():
    knobs = set()
    for sub in ("src", "bench", "examples", "tests"):
        for path in (REPO / sub).rglob("*"):
            if path.suffix in (".h", ".cpp", ".cc"):
                knobs.update(re.findall(r'"(ERMS_[A-Z_]+)"', path.read_text()))
    return sorted(knobs)


ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")


def rows_by_heading(ops):
    """Backticked first-cell names of table rows, keyed by nearest heading."""
    rows, heading = {}, None
    for line in ops.splitlines():
        if line.startswith("#"):
            heading = line
            continue
        m = ROW_RE.match(line)
        if m and heading is not None:
            rows.setdefault(heading, []).append(m.group(1))
    return rows


def main():
    ops = OPS.read_text()
    documented = set(re.findall(r"`([^`]+)`", ops))

    required = {
        "ErmsConfig": fields_of(REPO / "src/core/erms.h", "ErmsConfig"),
        "judge::Thresholds": fields_of(REPO / "src/judge/thresholds.h", "Thresholds"),
        "AccessPredictor::Config": fields_of(REPO / "src/judge/predictor.h", "Config"),
        "environment": env_knobs(),
    }
    # Heading prefix of each checked table -> the live names its rows may use.
    tables = {
        "## 1. ": required["ErmsConfig"],
        "### 1.1 ": fields_of(REPO / "src/hdfs/cluster.h", "ClusterConfig"),
        "## 2. ": required["judge::Thresholds"],
        "## 3. ": required["AccessPredictor::Config"],
        "## 4. ": required["environment"],
    }

    missing = []
    for group, names in required.items():
        for name in names:
            if name not in documented:
                missing.append(f"{group}: {name}")

    rows = rows_by_heading(ops)
    stale = []
    for prefix, live in tables.items():
        headings = [h for h in rows if h.startswith(prefix)]
        if not headings:
            sys.exit(f"error: no table rows under a '{prefix.strip()}' heading in {OPS}")
        for heading in headings:
            for name in rows[heading]:
                if name not in live:
                    stale.append(f"{heading.lstrip('# ')}: {name}")

    total = sum(len(v) for v in required.values())
    if missing:
        print(f"docs/OPERATIONS.md is missing {len(missing)} of {total} item(s):",
              file=sys.stderr)
        for item in missing:
            print(f"  {item}", file=sys.stderr)
    if stale:
        print(f"docs/OPERATIONS.md has {len(stale)} stale row(s) naming no live "
              f"field or knob:", file=sys.stderr)
        for item in stale:
            print(f"  {item}", file=sys.stderr)
    if missing or stale:
        return 1
    print(f"OK: all {total} config fields and env knobs are documented "
          f"in docs/OPERATIONS.md, and no row is stale")
    return 0


if __name__ == "__main__":
    sys.exit(main())
