"""Package surface: the public export list stays in step with the modules."""

import phonetrait


def test_every_exported_name_resolves():
    missing = [name for name in phonetrait.__all__ if not hasattr(phonetrait, name)]
    assert not missing, f"__all__ names without a binding: {missing}"
