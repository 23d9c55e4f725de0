import trajrefine


def test_every_exported_name_resolves():
    assert len(set(trajrefine.__all__)) == len(trajrefine.__all__)
    missing = [name for name in trajrefine.__all__ if not hasattr(trajrefine, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from trajrefine import *", namespace)
    assert set(trajrefine.__all__) <= set(namespace)

