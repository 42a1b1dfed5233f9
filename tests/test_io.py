"""Tests for GAIA-format trace I/O and map matching."""

import numpy as np
import pytest

from repro.demand.dataset import TripDataset
from repro.io.gaia import (
    GAIA_COLUMNS,
    MapMatcher,
    TraceFormatError,
    read_gaia_csv,
    write_gaia_csv,
)


@pytest.fixture()
def sample_dataset(small_net):
    rng = np.random.default_rng(3)
    m = 40
    origins = rng.integers(0, small_net.num_vertices, size=m)
    dests = (origins + 1 + rng.integers(0, small_net.num_vertices - 1, size=m)) % small_net.num_vertices
    return TripDataset(
        release_times=np.sort(rng.uniform(0, 3600, size=m)),
        origins=origins,
        destinations=dests,
        taxi_ids=rng.integers(0, 10, size=m),
    )


class TestMapMatcher:
    def test_exact_vertex(self, tiny_net):
        matcher = MapMatcher(tiny_net)
        x, y = tiny_net.xy[4]
        assert matcher.match_xy(float(x), float(y)) == 4

    def test_nearby_point_snaps(self, tiny_net):
        matcher = MapMatcher(tiny_net, snap_radius_m=60.0)
        assert matcher.match_xy(105.0, 95.0) == 4

    def test_far_point_unmatched(self, tiny_net):
        matcher = MapMatcher(tiny_net, snap_radius_m=100.0)
        assert matcher.match_xy(5000.0, 5000.0) is None

    def test_latlng_round_trip(self, tiny_net):
        from repro.network.geo import xy_to_latlng

        matcher = MapMatcher(tiny_net)
        lat, lng = xy_to_latlng(*map(float, tiny_net.xy[7]))
        assert matcher.match_latlng(lat, lng) == 7

    def test_bad_radius(self, tiny_net):
        with pytest.raises(ValueError):
            MapMatcher(tiny_net, snap_radius_m=0.0)


class TestRoundTrip:
    def test_write_then_read_recovers_trips(self, small_net, sample_dataset, tmp_path):
        path = tmp_path / "trace.csv"
        written = write_gaia_csv(path, sample_dataset, small_net)
        assert written == len(sample_dataset)

        loaded = read_gaia_csv(path, small_net, snap_radius_m=50.0)
        assert len(loaded) == len(sample_dataset)
        assert loaded.origins.tolist() == sample_dataset.origins.tolist()
        assert loaded.destinations.tolist() == sample_dataset.destinations.tolist()
        assert loaded.taxi_ids.tolist() == sample_dataset.taxi_ids.tolist()
        assert np.allclose(loaded.release_times, sample_dataset.release_times, atol=0.1)

    def test_header_written(self, small_net, sample_dataset, tmp_path):
        path = tmp_path / "trace.csv"
        write_gaia_csv(path, sample_dataset, small_net)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(GAIA_COLUMNS)

    def test_loaded_usable_for_mining(self, small_net, small_engine, sample_dataset, tmp_path):
        path = tmp_path / "trace.csv"
        write_gaia_csv(path, sample_dataset, small_net)
        loaded = read_gaia_csv(path, small_net)
        requests = loaded.to_requests(small_engine, rho=1.3)
        assert len(requests) > 0


class TestReadValidation:
    def test_missing_header_rejected(self, small_net, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(TraceFormatError):
            read_gaia_csv(path, small_net)

    def test_short_row_rejected(self, small_net, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(GAIA_COLUMNS) + "\n1,2,3\n")
        with pytest.raises(TraceFormatError):
            read_gaia_csv(path, small_net)

    def test_non_numeric_rejected(self, small_net, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(GAIA_COLUMNS) + "\n0,1,notatime,104.0,30.6,104.1,30.7\n"
        )
        with pytest.raises(TraceFormatError):
            read_gaia_csv(path, small_net)

    def test_out_of_area_rows_dropped(self, small_net, tmp_path):
        path = tmp_path / "trace.csv"
        # A single trip from the middle of the ocean.
        path.write_text(
            ",".join(GAIA_COLUMNS) + "\n0,1,0.0,0.0,0.0,0.1,0.1\n"
        )
        loaded = read_gaia_csv(path, small_net)
        assert len(loaded) == 0

    def test_empty_lines_skipped(self, small_net, sample_dataset, tmp_path):
        path = tmp_path / "trace.csv"
        write_gaia_csv(path, sample_dataset, small_net)
        with path.open("a") as handle:
            handle.write("\n\n")
        loaded = read_gaia_csv(path, small_net)
        assert len(loaded) == len(sample_dataset)
