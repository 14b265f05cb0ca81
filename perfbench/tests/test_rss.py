"""Peak RSS is measured per child, not as a running maximum over children."""

import resource

import run
from workloads import WORKLOADS


def test_small_report_after_large_one_reports_its_own_rss():
    run.WORK.mkdir(exist_ok=True)
    by_name = {s.name: s for s in WORKLOADS["finite-regular"].reports}
    bench = run.Run(WORKLOADS["finite-regular"], seed=0)
    large, _ = bench.report(by_name["finite-regular:Z6"])
    small, _ = bench.report(by_name["finite-regular:Z2"])
    assert large.ok and small.ok
    assert large.rss_mib > 120
    assert small.rss_mib < 0.6 * large.rss_mib
    assert bench.tally.peak_rss_mib == large.rss_mib
    assert bench.tally.failed == 0
    # The aggregate over reaped children would have reported the large one twice.
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 >= large.rss_mib
