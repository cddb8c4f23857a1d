import pickle

import pytest

from letterlink import errors
from letterlink.symbols import parse_symbol

# constructor arguments of the errors whose __init__ takes more than a message
ARGUMENTS = {
    errors.ParseError: ("unexpected ')'", 7, "a letter"),
    errors.UnknownGenerator: ("q",),
    errors.NonzeroCount: (-3,),
    errors.UndefinedInvariant: (parse_symbol("((a)b)c"), 2),
    errors.UndefinedReduction: ("v3", "no cobounding"),
    errors.NotInGamma: (("a", "b"),),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _instances():
    for cls in (errors.LetterLinkError, *_subclasses(errors.LetterLinkError)):
        yield cls(*ARGUMENTS.get(cls, ("something went wrong",)))
    yield errors.UndefinedReduction("v1")   # no detail


@pytest.mark.parametrize("error", list(_instances()), ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(error):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(error, protocol))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert copy.args == error.args
        assert vars(copy) == vars(error)


def test_every_error_with_arguments_is_listed():
    # a new error whose __init__ takes more than a message needs its
    # arguments in ARGUMENTS, or _instances cannot build it
    for cls in _subclasses(errors.LetterLinkError):
        if "__init__" in vars(cls):
            assert cls in ARGUMENTS, cls.__name__
