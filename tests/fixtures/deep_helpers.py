"""Helper layer for the deep-analysis fixtures (leaf + mid levels).

Every *leaf* here carries exactly one hazard that the per-module lint
rules cannot pin on the entry points in
:mod:`tests.fixtures.deep_planted`: DET002 reports the aliased clock
read in ``stamp`` itself (the ``_wall`` alias is resolved), and no
local rule covers the others at all (``uuid4``, ``os.getenv`` as a
call, lock construction outside a map call-site, module-global
mutation).  Each *mid*-level wrapper adds one call hop, so the entry
points sit two hops from the hazard and only the whole-program pass
connects them.

Do not "fix" these: tests pin the exact findings.
"""

from time import time as _wall  # DET002 resolves the alias

import os
import threading
import uuid

_LEDGER = []


# -- leaves: one concrete hazard each ---------------------------------------

def stamp():
    return _wall()


def fresh_token():
    return uuid.uuid4().hex


def host_home():
    return os.getenv("HOME", "/nonexistent")


def make_gate():
    return threading.Lock()


def record(value):
    _LEDGER.append(value)
    return len(_LEDGER)


# -- mids: one call hop above each leaf -------------------------------------

def annotate(value):
    return (value, stamp())


def labelled(value):
    return "%s:%r" % (fresh_token(), value)


def homed(value):
    return (host_home(), value)


def gated(value):
    return (make_gate(), value)


def audited(value):
    return record(value) + value


# -- clean control path -----------------------------------------------------

def doubled(value):
    return value * 2
