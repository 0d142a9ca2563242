import rankmetric


def test_every_exported_name_resolves_once():
    names = rankmetric.__all__
    assert sorted(set(names)) == sorted(names), "duplicate names in __all__"
    assert [n for n in names if not hasattr(rankmetric, n)] == []
