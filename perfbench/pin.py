"""Regenerate the benchmark's pinned data from the current package.

    python3 perfbench/pin.py

Writes ``data/kfunctions.json`` (every k-function on Q_4 and Q_5 with
k >= 1, the input pool of the workloads) and ``data/pins.json`` (the exit
code and stdout SHA-256 of every request any workload can send).  Pins are
made once, from a commit whose outputs are trusted; a later change that
alters any output then shows up as a failed request.  Takes a few minutes.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import digest, execute, load_cli


def main() -> int:
    cli = load_cli()
    from cubestable.kfunctions import enumerate_spectral, enumerate_truth_tables
    from cubestable.serialize import function_to_json

    def hexes(tables):
        return [function_to_json(f)["truth_table"] for f in tables]

    pool = {
        "4": {str(k): hexes(enumerate_truth_tables(4, k)) for k in range(1, 5)},
        "5": {str(k): hexes(enumerate_spectral(5, k)) for k in range(1, 6)},
    }
    workloads.POOL_FILE.parent.mkdir(exist_ok=True)
    workloads.POOL_FILE.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")

    work = workloads.ROOT / ".perfbench_work" / "pin"
    work.mkdir(parents=True, exist_ok=True)
    pins: dict[str, list] = {}
    reqs = workloads.all_pinned_requests(workloads.load_pool())
    for i, req in enumerate(reqs):
        key = req.key()
        if key in pins:
            continue
        code, out, seconds = execute(cli, req.argv(work))
        if not isinstance(code, int):
            raise SystemExit(f"{req.cls} request crashed: {code}")
        pins[key] = [code, digest(out)]
        print(f"{i + 1}/{len(reqs)} {req.cls} exit {code} {seconds * 1e3:.1f} ms",
              file=sys.stderr)
    verify = []
    for seed in (1, 2):
        (req,) = workloads.verify_requests(seed)
        code, out, _ = execute(cli, req.argv(work))
        verify.append((req.key(), [code, digest(out)]))
    if verify[0] != verify[1] or verify[0][1][0] != 0:
        raise SystemExit(f"verify reports differ between seeds or fail: {verify}")
    pins[verify[0][0]] = verify[0][1]
    workloads.PINS_FILE.write_text(
        json.dumps(dict(sorted(pins.items())), indent=0) + "\n", encoding="utf-8")
    for path in work.glob("*"):
        path.unlink()
    work.rmdir()
    print(f"pinned {len(pins)} requests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
