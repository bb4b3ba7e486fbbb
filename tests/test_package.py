"""The package namespace.

Oracle: `from fastslow import *` must import exactly the names listed
in fastslow.__all__, each once, and each must be the attribute of the
same name.
"""

import fastslow


def test_all_lists_each_public_name_once_and_resolves():
    namespace = {}
    exec("from fastslow import *", namespace)
    assert len(set(fastslow.__all__)) == len(fastslow.__all__)
    for name in fastslow.__all__:
        assert namespace[name] is getattr(fastslow, name)
