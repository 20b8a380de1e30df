"""Regenerate bench/golden.json: sha256 digests of the tables workload's
oracle JSON and the audit workload's report files for the golden seed.

    python3 bench/make_golden.py

Run it only when the outputs of ``gen`` / ``check`` are meant to change;
the benchmark fails every job whose digest no longer matches.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_kspoly()
    run.OUT_DIR.mkdir(exist_ok=True)
    doc = {"seed": run.GOLDEN_SEED, "pool": run.POOL, "trials": run.AUDIT_TRIALS}
    for workload in ("tables", "audit"):
        slots = []
        for jobs in run.make_passes(workload, run.GOLDEN_SEED, run.POOL, None):
            slots.append({case: job()[0] for case, job in jobs})
            print(workload, len(slots), flush=True)
        doc[workload] = slots
    run.GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
