"""The public surface: every exported name resolves.

Tracing wrappers (``bench/spans.py``) find the functions they wrap
through each module's ``__all__``, so a stale entry there breaks them
as surely as it breaks ``from sgs import *``.
"""
import importlib
import pkgutil

import sgs


def test_every_export_resolves():
    modules = [sgs] + [importlib.import_module(f"sgs.{info.name}")
                       for info in pkgutil.iter_modules(sgs.__path__)]
    exported = [(mod, name) for mod in modules
                for name in getattr(mod, "__all__", ())]
    assert len(exported) > len(sgs.__all__)
    missing = [f"{mod.__name__}.{name}" for mod, name in exported
               if not hasattr(mod, name)]
    assert missing == []
    assert len(set(sgs.__all__)) == len(sgs.__all__)
