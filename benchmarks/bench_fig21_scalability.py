"""Fig. 21: scalability with the amount of trace data processed.

Paper: total execution time grows linearly with the hours of data while
per-request response time stays flat — the system scales to a full day
of city traffic.
"""

from conftest import run_figure
from repro.experiments.figures import fig21_scalability, fig21v_vertex_scalability


def test_fig21_scalability(benchmark, scale):
    res = run_figure(benchmark, fig21_scalability, scale)
    execution = res.series["execution_s"]
    responses = res.series["response_ms"]
    # Execution grows with the data volume overall (single hours carry
    # wall-clock noise, so only the endpoints are compared strictly).
    assert execution[-1] >= execution[0]
    # Response time stays within a small factor across data volumes.
    assert max(responses) <= max(10.0 * min(responses), min(responses) + 5.0)


def test_fig21v_vertex_scalability(benchmark, scale):
    """Fig. 21 companion: network-size axis over the auto lazy cutover.

    The sweep must cross ``FULL_APSP_LIMIT`` so the largest cell runs
    on the lazy per-source backend, and per-request response time
    must stay flat as the network grows.
    """
    res = run_figure(benchmark, fig21v_vertex_scalability, scale)
    assert res.series["sp_mode"][0] == "full"
    assert res.series["sp_mode"][-1] == "lazy"
    # Absolute dispatch-latency bound: per-request response stays in the
    # tens of milliseconds even on networks far past the APSP ceiling
    # (point lookups become per-source Dijkstra trees behind an LRU memo,
    # so a relative-flatness gate against the dense-table cells would be
    # meaningless).
    assert max(res.series["response_ms"]) <= 50.0
