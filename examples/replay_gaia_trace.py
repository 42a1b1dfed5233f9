#!/usr/bin/env python3
"""Replay a GAIA-format trace file through the dispatcher.

Demonstrates the data pipeline a user with the real Didi GAIA Chengdu
files would run: read the CSV, map-match the trips onto a road network,
mine the history, dispatch the busiest hour and analyse the run.

For self-containment this script first *exports* a synthetic trace to
the GAIA format and then treats that file as the input — swap the path
for a real GAIA CSV (and a matching road network) to replay the actual
data.

Run:  python examples/replay_gaia_trace.py
"""

from pathlib import Path

import numpy as np

from repro import MTShare, PaymentModel, ShortestPathEngine, Simulator, bipartite_partition, grid_city
from repro.config import SystemConfig
from repro.demand.generator import ChengduLikeDemand
from repro.experiments.analysis import run_report
from repro.fleet.taxi import Taxi
from repro.io import read_gaia_csv, write_gaia_csv


def main() -> None:
    out_dir = Path(__file__).parent / "output"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / "synthetic_gaia_trace.csv"

    # --- stage 0: a road network (with the real data: build from OSM) ---
    network = grid_city(rows=14, cols=14, spacing_m=200.0, seed=21)
    engine = ShortestPathEngine(network)

    # --- stage 1: obtain a GAIA-format trace --------------------------
    demand = ChengduLikeDemand(network, hourly_requests=350, seed=21)
    synthetic = demand.generate_days(3)
    rows = write_gaia_csv(trace_path, synthetic, network)
    print(f"Exported {rows} trips to {trace_path.name} (GAIA format)")

    # --- stage 2: read + map-match, as with the real files ------------
    trace = read_gaia_csv(trace_path, network, snap_radius_m=120.0)
    print(f"Loaded and map-matched {len(trace)} trips")

    # --- stage 3: mine the history, build the dispatcher --------------
    hour_idx, count = trace.busiest_hour()
    window = trace.window(hour_idx * 3600.0, (hour_idx + 1) * 3600.0)
    history = trace.exclude_window(hour_idx * 3600.0, (hour_idx + 1) * 3600.0)
    print(f"Busiest hour: #{hour_idx} with {count} trips")

    partitioning = bipartite_partition(
        network, history.od_pairs(), num_partitions=20,
        num_transition_clusters=8, seed=21,
    )
    config = SystemConfig(num_partitions=partitioning.num_partitions,
                          search_range_m=900.0)
    scheme = MTShare(network, engine, config, partitioning)

    # --- stage 4: replay the busiest hour -----------------------------
    requests = window.to_requests(engine, rho=1.3, time_origin=hour_idx * 3600.0)
    rng = np.random.default_rng(1)
    fleet = [Taxi(taxi_id=i, capacity=3, loc=int(rng.integers(network.num_vertices)))
             for i in range(35)]
    sim = Simulator(scheme, fleet, requests, payment=PaymentModel())
    sim.run()
    print()
    print(run_report(sim))


if __name__ == "__main__":
    main()
