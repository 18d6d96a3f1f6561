#!/usr/bin/env python3
"""Checks that the `figures` bench prints every value that the per-figure
bench targets it replaced printed, under the same figure, row and column.

    python3 compare.py BEFORE_DIR AFTER_FILE

BEFORE_DIR holds one `<target>.txt` per old target: its stdout at
CC_TINY=1. AFTER_FILE is the stdout of `CC_TINY=1 cargo bench -p bench
--bench figures`. A missing or changed value fails the check, except in
AVG/MAX rows, whose changes are listed. Exits 1 on a failure.
"""
import re
import sys
from collections import defaultdict
from pathlib import Path

# Old banner title -> figure id.
FIGURE = [("Figure 3", "fig03"), ("Figure 4", "fig04"), ("Figure 6", "fig06"),
          ("Table 2", "table2"), ("Figure 7", "fig07"), ("Figure 8", "fig08"),
          ("Figure 9", "fig09"), ("Figure 10", "fig10"), ("Figure 11", "fig11"),
          ("Family", "family"), ("Timing", "timing"), ("Section 6.3", "sec63"),
          ("Ablation", "ablations")]
# Old "label: value" lines -> (row, column); other labels map to (label, "value").
SCALAR = {"periodic IIC/EC hit rate": ("periodic IIC/EC", "hit rate"),
          "exact expiry hit rate": ("exact expiry", "hit rate"),
          "premature-invalidation loss": ("exact expiry", "premature-invalidation loss"),
          "private (128/core)": ("private (128/core)", "hit rate"),
          "shared (1024 total)": ("shared (1024 total)", "hit rate"),
          "Fcfs": ("Fcfs", "ChargeCache gain"), "FrFcfs": ("FrFcfs", "ChargeCache gain"),
          "AVG saving": ("AVG", "saving"), "MAX saving": ("MAX", "saving")}


def parse(text, old):
    """{(figure, row, column): [values in print order]}"""
    values, fig, header, geometry = defaultdict(list), None, None, False
    for line in text.splitlines():
        if line.startswith("=== "):
            title = line[4:].split(":")[0]
            fig = next(i for t, i in FIGURE if title.startswith(t)) if old else title
        elif line == "geometry:":
            geometry = True
        elif geometry and line.startswith("  "):
            name, rest = line.split(None, 1)
            values[(fig, name, "geometry")].append(rest)
            continue
        elif old and ":" in line and not line.startswith("paper:"):
            for label, value in re.findall(r"([^:]+):\D*?(-?[\d.]+%?)", line):
                row, col = SCALAR.get(label.strip(), (label.strip(), "value"))
                values[(fig, row, col)].append(value)
        elif not line.strip() or line.startswith(("---", "paper:", "(")):
            pass
        elif header is None:
            header = re.split(r"\s{2,}", line.strip())
            edges = [m.end() for m in re.finditer(r"\S+(?: \S+)*", line)]
            nlabels = 2 if header[1:2] == ["policy"] else 1
            continue
        elif old:
            tokens = [(m.group(), m.end()) for m in re.finditer(r"\S+", line)]
            nvalues = len(header) - nlabels
            if len(tokens) >= nlabels + nvalues:
                row = " ".join(t for t, _ in tokens[: len(tokens) - nvalues])
                cells = zip(header[nlabels:], [t for t, _ in tokens[len(tokens) - nvalues:]])
            else:  # an aggregate row with blanks: each value goes to the nearest column edge
                row = " ".join(t for t, _ in tokens[:nlabels])
                near = lambda e: min(range(nlabels, len(header)), key=lambda i: abs(edges[i] - e))
                cells = [(header[near(e)], t) for t, e in tokens[nlabels:]]
            for col, value in cells:
                values[(fig, row, col)].append(value)
            continue
        else:
            cells = re.split(r"\s{2,}", line.strip())
            for col, value in zip(header[nlabels:], cells[nlabels:]):
                values[(fig, " ".join(cells[:nlabels]), col)].append(value)
            continue
        header, geometry = None, geometry and bool(line.strip())
    return values


before = defaultdict(list)
for path in sorted(Path(sys.argv[1]).glob("*.txt")):
    for key, vs in parse(path.read_text(), old=True).items():
        before[key] += vs
after = parse(Path(sys.argv[2]).read_text(), old=False)
matched, failed, changed = defaultdict(int), [], []
for key, vs in sorted(before.items()):
    if after.get(key) == vs:
        matched[key[0]] += len(vs)
    else:
        line = f"  {' / '.join(key)}: {' '.join(vs)} -> {' '.join(after.get(key, ['absent']))}"
        (changed if key[1].startswith(("AVG", "MAX")) else failed).append(line)
for fig, n in sorted(matched.items()):
    print(f"{fig}: {n} values match")
print("\n".join(["changed aggregate rows:"] + changed + ["FAILED:"] * bool(failed) + failed))
sys.exit(1 if failed else 0)
