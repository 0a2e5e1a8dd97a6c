"""Figure 4h: total useful work vs nodes at 16 processors per node."""


def test_fig4h(quick_figure):
    figure = quick_figure("fig4h", seed=47)
    assert set(figure.series) == {
        "MTTF per node (yrs) = 1",
        "MTTF per node (yrs) = 2",
    }
    assert figure.x_values("MTTF per node (yrs) = 1") == [
        8192.0, 16384.0, 32768.0, 65536.0,
    ]
