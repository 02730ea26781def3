"""Tuple operators that hvlab's tuple-backed value types refuse.

The value types are tuples underneath, so they would inherit
concatenation, repetition and lexicographic order.  None of these means
anything for a ring element, a state, a gate or a sign triplet, and a slip
such as ``triplet + triplet`` must fail instead of returning a 6-tuple.
"""


def refused(*symbols: str) -> tuple:
    """One binary method per operator symbol, each raising TypeError."""
    return tuple(_refusal(symbol) for symbol in symbols)


def _refusal(symbol: str):
    def refuse(self, other):
        raise TypeError(f"{type(self).__name__} values do not support {symbol}")

    return refuse
