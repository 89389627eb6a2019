import hwsep


def test_every_public_name_resolves():
    missing = [name for name in hwsep.__all__ if not hasattr(hwsep, name)]
    assert missing == []
    assert len(set(hwsep.__all__)) == len(hwsep.__all__)
