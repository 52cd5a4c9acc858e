"""The public package namespace."""

import qeflab


def test_all_names_resolve():
    # a helper deleted from a module but still listed in __all__ fails here
    missing = [name for name in qeflab.__all__ if not hasattr(qeflab, name)]
    assert missing == []
