"""The package's public surface."""
import surdseq


def test_every_exported_name_resolves():
    missing = [name for name in surdseq.__all__ if not hasattr(surdseq, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from surdseq import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(surdseq.__all__)
    assert len(set(surdseq.__all__)) == len(surdseq.__all__)
