"""The north star's thread clause: an answer does not depend on the thread
that asks for it.  A global run and every local query leave an instance's
attributes as they were, and four threads, each asking every query in its
own shuffled order, get the serial answers and probe counts.  Pricing a
machine and auditing an auction leave it as they were too."""

from __future__ import annotations

import hashlib
import pickle
import random
import sys
import threading

import pytest

from localmech.auctions import truthfulness_audit
from localmech.instances import FAMILIES, InstanceSpec, build_instance
from localmech.probes import ProbeCounter
from localmech.scheduling import payment_rlms, payment_slms_expected, payment_slms_sampled

N = 300
ROUNDS = 6  # matching's round budget; the other families ignore it
THREADS = 4


def _state(inst) -> str:
    return hashlib.sha256(pickle.dumps(vars(inst))).hexdigest()


def _answer(fam, inst, kind: int, entity: int) -> tuple[str, int]:
    query = fam.queries[kind]
    counter = ProbeCounter()
    return query.canon(query.local(inst, ROUNDS, entity, counter)), counter.count


@pytest.mark.parametrize("family", list(FAMILIES))
def test_threads_get_the_serial_answers_and_change_no_state(family):
    fam = FAMILIES[family]
    k = 3 if fam.size == "k" else 2
    inst = build_instance(InstanceSpec(seed=31, family=family, n=N, m=N, k=k))
    built = _state(inst)
    fam.run(inst, ROUNDS)
    assert _state(inst) == built
    asks = [(q, e) for q, query in enumerate(fam.queries) for e in range(getattr(inst, query.side))]
    serial = {ask: _answer(fam, inst, *ask) for ask in asks}
    assert _state(inst) == built

    got: list[dict] = [{} for _ in range(THREADS)]

    def ask_all(t: int) -> None:
        mine = list(asks)
        random.Random(t).shuffle(mine)
        for ask in mine:
            got[t][ask] = _answer(fam, inst, *ask)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so their queries interleave
    try:
        threads = [threading.Thread(target=ask_all, args=(t,)) for t in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert all(answers == serial for answers in got)
    assert _state(inst) == built


# family → the served calls that price or audit one instance of it
SERVED = {
    "scheduling-std": lambda inst: [
        pay(inst, i) for i in range(inst.n) for pay in (payment_slms_expected, payment_slms_sampled)
    ],
    "scheduling-res": lambda inst: [payment_rlms(inst, i) for i in range(inst.n)],
    "uduv": truthfulness_audit,
    "udubv": truthfulness_audit,
    "ksmb": truthfulness_audit,
}


@pytest.mark.parametrize("family", list(SERVED))
def test_payments_and_audits_change_no_state(family):
    inst = build_instance(InstanceSpec(seed=3, family=family, n=6, m=6, k=2))
    built = _state(inst)
    SERVED[family](inst)
    assert _state(inst) == built
