"""Walk-oracle grids for chosen days and orders, written as JSON.

    python3 oracle_grids.py TX_CSV OUT_JSON ORDER [ORDER ...]

Runs ``txpattern.korder.occurrence_matrix_oracle`` on every day of TX_CSV
for each listed order.  The output maps ``"<day index>:<order>"`` to the
row-major 400 cell counts.  The benchmark runs this outside every timed
region and caches the result per corpus.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    from txpattern.ingest import parse_transactions, partition_daily
    from txpattern.korder import occurrence_matrix_oracle
    from txpattern.txgraph import build_graph

    tx_csv, out_json = argv[0], argv[1]
    orders = [int(k) for k in argv[2:]]
    grids = {}
    for d, window in enumerate(partition_daily(parse_transactions(tx_csv))):
        graph = build_graph(window)
        for k in orders:
            grids[f"{d}:{k}"] = occurrence_matrix_oracle(graph, k).to_flat().tolist()
    with open(out_json, "w", encoding="utf-8") as fh:
        json.dump(grids, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
