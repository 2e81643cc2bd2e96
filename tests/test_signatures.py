"""The public API takes no size caps or check switches as parameters.

Every cap is a module constant; the one settable limit is the
LATSPACE_MAX_ENUM environment variable.
"""

import inspect
import re

import latspace as ls

FORBIDDEN = re.compile(r"^(max|check)_")


def public_callables():
    for name in ls.__all__:
        obj = getattr(ls, name)
        if inspect.isclass(obj):
            yield f"{name}.__init__", obj.__init__
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and callable(getattr(obj, attr)):
                    yield f"{name}.{attr}", getattr(obj, attr)
        elif inspect.isfunction(obj):
            yield name, obj


def test_no_public_callable_takes_a_cap_parameter():
    offenders = []
    checked = 0
    for name, func in public_callables():
        try:
            params = inspect.signature(func).parameters
        except (TypeError, ValueError):  # builtins without a signature
            continue
        checked += 1
        offenders += [f"{name}({p})" for p in params if FORBIDDEN.match(p)]
    assert checked > 50
    assert offenders == []
