import ringflow


def test_every_exported_name_resolves():
    missing = [name for name in ringflow.__all__ if not hasattr(ringflow, name)]
    assert missing == []
