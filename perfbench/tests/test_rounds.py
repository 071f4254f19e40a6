"""When a run starts another piece of work, and how a design's runs
combine."""

from types import SimpleNamespace

from perfbench.workloads import design_times, keep_going


def test_a_run_continues_while_the_next_piece_fits():
    assert keep_going(3, 15.0, 20.0, minimum=2)  # next ends at 20
    assert not keep_going(3, 16.0, 20.0, minimum=2)  # at 21.3


def test_one_pass_over_the_suite_always_runs():
    # Two flows took 30 s of a 20 s budget: the suite has four designs.
    assert keep_going(2, 30.0, 20.0, minimum=4)
    assert keep_going(3, 45.0, 20.0, minimum=4)
    assert not keep_going(4, 60.0, 20.0, minimum=4)


def test_a_design_counts_its_median_normalized_time():
    runs = [("a", 2.0, 1.0), ("b", 3.0, 0.5), ("a", 4.0, 0.5), ("a", 9.0, 1.0)]
    samples = [SimpleNamespace(key=k, flow_s=t, scale=s) for k, t, s in runs]
    assert design_times(samples, "flow_s") == [2.0, 1.5]
    assert design_times(samples, "flow_s", normalized=False) == [4.0, 3.0]
