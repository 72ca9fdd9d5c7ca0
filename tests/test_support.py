"""The test helpers' own contracts."""
import time

from support import doubling_ratios


def test_doubling_ratios_count_cpu_time_not_time_off_the_core():
    # the same work at both sizes, but a ten times longer sleep at the
    # second: a wall clock reads a ratio of about 5, this process's CPU time
    # about 1, as when another job holds the core during one size's runs
    def run(pause):
        sum(i * i for i in range(50_000))
        time.sleep(pause)

    ratio, = doubling_ratios(run, [0.005, 0.05])
    assert ratio < 1.5, ratio
