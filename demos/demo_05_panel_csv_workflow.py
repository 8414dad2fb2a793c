#!/usr/bin/env python3
"""End-to-end panel workflow through the file formats and the CLI.

Writes a small long-format CSV panel (the kind produced by grouping
prediction streams by entity and period), imputes a missing cell through
the command-line interface, and reads the JSON result back.

Run:
    python3 demos/demo_05_panel_csv_workflow.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from distnn.cli import main as cli_main


def build_csv(path: Path):
    rng = np.random.default_rng(99)
    rows = ["row,col,value"]
    # four periods x three entities; each observed cell holds 12 samples;
    # entity "gamma" is missing in period "q4"
    for i, period in enumerate(("q1", "q2", "q3", "q4")):
        for j, entity in enumerate(("acme", "beta", "gamma")):
            if period == "q4" and entity == "gamma":
                continue
            center = 2.0 * i + 5.0 * j
            for v in center + rng.normal(scale=0.8, size=12):
                rows.append(f"{period},{entity},{float(v)!r}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        panel_path = tmp / "earnings_panel.csv"
        build_csv(panel_path)
        with open(panel_path, encoding="utf-8") as f:
            records = sum(1 for _ in f) - 1
        print(f"wrote panel: {panel_path.name} ({records} records)")

        out_path = tmp / "imputed.json"
        code = cli_main([
            "impute",
            "--input", str(panel_path),
            "--row", "q4", "--col", "gamma",
            "--tune", "--budget", "25",
            "--output", str(out_path),
        ])
        print(f"cli exit code: {code}")

        payload = json.loads(out_path.read_text())
        result = payload["result"]
        print(f"neighbors used: {result['neighbors']['rows']}")
        print(f"tuned eta: {result['eta']:.4f}")
        print("imputed summaries:")
        for key, value in result["summaries"].items():
            print(f"  {key:12s} = {value:+.4f}")
        est = result["estimate"]
        print(f"estimate kind: {est['kind']} with "
              f"{len(est.get('samples', est.get('values', [])))} atoms")
        print("\nthe JSON embeds the resolved config, so re-running it")
        print("reproduces the file byte for byte.")


if __name__ == "__main__":
    main()
