"""A fixed pure-Python job that measures how fast the machine runs right now.

Shared machines change speed by tens of percent over seconds to minutes,
as other tenants come and go. The ruler does the kind of work pathrw does:
it normalizes a small tree of frozen dataclasses by rescanning from the
root after every contraction, building new nodes and comparing and hashing
subtrees. It shares no code with pathrw, so a change to pathrw never
changes the ruler's time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class _Leaf:
    name: str


@dataclass(frozen=True, slots=True)
class _Unit:
    at: str


@dataclass(frozen=True, slots=True)
class _Inv:
    body: object


@dataclass(frozen=True, slots=True)
class _Pair:
    left: object
    right: object


def _build(n: int):
    t = _Leaf("a")
    for i in range(1, n):
        leaf = _Leaf("abc"[i % 3])
        kind = i % 5
        if kind == 0:
            t = _Pair(t, _Pair(leaf, _Inv(leaf)))
        elif kind == 1:
            t = _Pair(t, _Unit("x"))
        elif kind == 2:
            t = _Pair(_Inv(_Inv(t)), leaf)
        else:
            t = _Pair(t, leaf)
    return t


def _step(t):
    """One leftmost-innermost contraction, or None at a normal form."""
    if isinstance(t, _Pair):
        inner = _step(t.left)
        if inner is not None:
            return _Pair(inner, t.right)
        inner = _step(t.right)
        if inner is not None:
            return _Pair(t.left, inner)
        if isinstance(t.right, _Unit):
            return t.left
        if isinstance(t.right, _Inv) and t.right.body == t.left:
            return _Unit("x")
        if isinstance(t.left, _Pair):
            return _Pair(t.left.left, _Pair(t.left.right, t.right))
    elif isinstance(t, _Inv):
        if isinstance(t.body, _Inv):
            return t.body.body
        inner = _step(t.body)
        if inner is not None:
            return _Inv(inner)
    return None


def run_once() -> float:
    """Seconds one fixed batch of ruler work takes, about a millisecond."""
    start = time.perf_counter()
    t = _build(16)
    seen = set()
    while t is not None:
        seen.add(t)
        t = _step(t)
    return time.perf_counter() - start
