#!/usr/bin/env python3
"""Layer check for the library sources (stdlib only).

Usage: check_layers.py [SRC_DIR]

The library is layered bottom-up: common, wse, flowsim, model, autogen and
collectives form the lower layers; registry, runtime, store and serving sit
above them. A lower-layer file (.hpp or .cpp) must not include a header of
an upper layer, so that the schedule builders, the model and the simulators
build and test without the planner stack. SRC_DIR defaults to the src/
directory next to this script's parent.

Exits 1 listing every offending include, 0 when the layering holds.
"""

import re
import sys
from pathlib import Path

LOWER = ("common", "wse", "flowsim", "model", "autogen", "collectives")
UPPER = ("registry", "runtime", "store", "serving")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"/]+)/[^"]*"')


def violations(src):
    """(file, line number, include text) for every upward include."""
    found = []
    for layer in LOWER:
        for path in sorted((src / layer).rglob("*")):
            if path.suffix not in (".hpp", ".cpp"):
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            for number, line in enumerate(lines, start=1):
                match = INCLUDE_RE.match(line)
                if match and match.group(1) in UPPER:
                    found.append((path.relative_to(src.parent), number,
                                  line.strip()))
    return found


def main(argv):
    src = (Path(argv[1]) if len(argv) > 1
           else Path(__file__).resolve().parent.parent / "src")
    missing = [layer for layer in LOWER if not (src / layer).is_dir()]
    if missing:
        print(f"check_layers: no {', '.join(missing)} under {src}",
              file=sys.stderr)
        return 1
    found = violations(src)
    for path, number, text in found:
        print(f"{path}:{number}: lower layer includes an upper one: {text}")
    if found:
        print(f"check_layers: {len(found)} upward include(s); "
              f"{'/'.join(LOWER)} must not include {'/'.join(UPPER)}")
        return 1
    print(f"ok: no file under src/{{{','.join(LOWER)}}} includes "
          f"src/{{{','.join(UPPER)}}}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
