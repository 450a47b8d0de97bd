"""Record the reference stdout digest of every problem the benchmark can run.

    python3 bench/record_digests.py [WORKLOAD ...]

Runs all SLOTS x VARIANTS problems of each named workload (default: all)
through the CLI of this checkout and stores the SHA-256 of each stdout in
reference_digests.json, which the benchmark compares against.  Run it only on
the commit whose output is the reference, or after changing a workload's
generator; a problem that exits nonzero is refused.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import problems
import run


def record(cli, workload: str) -> list[list[tuple[str, float]]]:
    """(digest, seconds) for every slot and variant of a workload."""
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=run.ROOT) as tmp:
        runner = run.Runner(cli, workload, {workload: None}, Path(tmp))
        table = []
        for slot in range(problems.SLOTS):
            row = []
            for variant in range(problems.VARIANTS):
                elapsed, code, stdout = runner.run(runner.write(slot, variant))
                if code != 0:
                    raise SystemExit(f"{workload} slot {slot} variant {variant} exited {code}")
                row.append((hashlib.sha256(stdout.encode("utf-8")).hexdigest(), elapsed))
            table.append(row)
    return table


def main(argv: list[str]) -> int:
    cli = run.load_cli()
    names = argv or sorted(problems.WORKLOADS)
    digests = run.load_digests() if run.DIGESTS.exists() else {}
    for name in names:
        digests[name] = [[d for d, _ in row] for row in record(cli, name)]
    lines = ["{"]
    for k, name in enumerate(sorted(digests)):
        lines.append(f"  {json.dumps(name)}: [")
        rows = digests[name]
        for r, row in enumerate(rows):
            lines.append("    " + json.dumps(row) + ("," if r + 1 < len(rows) else ""))
        lines.append("  ]" + ("," if k + 1 < len(digests) else ""))
    lines.append("}")
    run.DIGESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
