from covertawgn import verify as vf


def test_run_all_times_each_check_and_gates_it_on_its_limit(monkeypatch):
    monkeypatch.setattr(vf, "CHECKS", {
        2: ("over its limit", 0.0, lambda: (True, "ran")),
        1: ("within its limit", 60.0, lambda: (True, "ok")),
    })
    within, over = vf.run_all()
    assert [within.criterion, over.criterion] == [1, 2]
    assert (within.name, within.limit) == ("within its limit", 60.0)
    assert (over.name, over.limit) == ("over its limit", 0.0)
    assert within.passed is True and within.detail == "ok"
    # the check itself passed; its runtime, still recorded, is past a 0 s limit
    assert over.passed is False and over.detail == "ran"
    assert over.runtime > 0.0
