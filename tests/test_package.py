"""The package's public surface: `from reservelab import *` exports exactly its bindings."""

import types

import reservelab


def test_star_import_exports_every_public_binding():
    # a stale name in __all__ breaks `import *` while every direct import still works
    namespace = {}
    exec("from reservelab import *", namespace)
    public = sorted(name for name, value in vars(reservelab).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert reservelab.__all__ == public
    assert len(set(reservelab.__all__)) == len(reservelab.__all__)
    assert all(namespace[name] is getattr(reservelab, name) for name in public)
