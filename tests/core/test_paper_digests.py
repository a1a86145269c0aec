"""Pinned result digests for the paper's schedulers.

The paper's schedulers re-submit a DELAYed request on every commit and
"after some delay" (``retry_delay_ms``); the modern families re-submit
on commits only.  Both share the waiting code in :mod:`repro.core.base`,
so any change there must leave the paper schedulers' results
byte-identical.  Each digest below is the sha256 of
``json.dumps(result.to_dict(), sort_keys=True)`` for a short exp1 cell;
every cell at lambda = 1.2 exercises blocks, and GOW/LOW/LOW-LB cells
exercise the retry fallback.  The exp2 cells put S locks beside X locks
on the 8 hot files, so GOW/LOW decide between readers and writers there.

The wide cells pin the step path where one step splits into the most
cohorts: DD = 8 for the paper's schedulers and DD = 4 for the modern
families.  The last two pins cover the observation outputs of one
DD = 8 cell, byte for byte: the JSONL trace export and the time-series
export.
"""

import hashlib
import json

import pytest

from repro.machine import MachineConfig
from repro.obs import MemoryRecorder, write_jsonl
from repro.obs.timeseries import TimeSeriesSampler, write_series_json
from repro.sim import run_simulation
from repro.txn import experiment1_workload, experiment2_workload

#: (scheduler, rate_tps, dd) -> digest, exp1, seed 1, 60 s with 5 s warm-up
DIGESTS = {
    ("NODC", 0.8, 1): "1a4d46f4c30fc7771cdb4b397c7006783e129d165c89675b0c2aa3f56ad951f4",
    ("NODC", 0.8, 4): "091dd7511f2e201d8e5e74537445909decac9b289bd3f5f5b7ad0ba0b813e5e2",
    ("NODC", 1.2, 1): "3ae3a357c10721899ab9fcde3ed126c9892073c180eb34978daa046254e6f7e0",
    ("NODC", 1.2, 4): "23c686f3c2831b6de868cedb8a3896ca7a9dfd5d99e449a357d32c35a6238fb1",
    ("ASL", 0.8, 1): "1fafb5a7345f8f4146f81477df81b27b3a9b4e49ab5ad9a9cef7d04ef201ddc7",
    ("ASL", 0.8, 4): "0d502ba98a34f5a3b08c3a77756763d117199e18bebe2e0b54f567334165ebd0",
    ("ASL", 1.2, 1): "c87c486061e87f5ba3d62c80e8c64c820f3224cb3f53a6040bb31d00615f6da8",
    ("ASL", 1.2, 4): "bfcb4d85ba8404e40fd73ec6926dc1906e721180bf6cfe5b6e1374fe1ad6e775",
    ("C2PL", 0.8, 1): "f26fb80961c7823923ea5893a29d7c919da2abdd47f251fa3400a940101404a1",
    ("C2PL", 0.8, 4): "71d8bfed9c4ceadd38468c7505ef4fd19c45783596d167c8f46de9851a784355",
    ("C2PL", 1.2, 1): "802bfb77193352edd12d8d7047c388336dd464e1f43731f84476e9d3cc1feb08",
    ("C2PL", 1.2, 4): "f8ef0803691e852a9a913faa9f0b70357893b578b6d8ce0326801aa289d1d603",
    ("GOW", 0.8, 1): "128f12332fce060056a31b39099709c2dd6f40bc310e9f0a6c74781fb7271f42",
    ("GOW", 0.8, 4): "2952ceb396fa7b5f468a95ced90d236defbee0d31953145bd547bfcf5bf03d60",
    ("GOW", 1.2, 1): "3b677a37bf737eb7e183bb4d035f4be318a371ddc9895121bc3701cea89b3400",
    ("GOW", 1.2, 4): "d49f87c38551ae037c42254fc7f8d515c746aa0587d7120670ea2933f05c6966",
    ("LOW", 0.8, 1): "c0295388874198fe5f3380099c44535376b687ecf304eea08697483a4f15c44d",
    ("LOW", 0.8, 4): "b94593f4b2d2d78f9d5340f1dbc95c2665bed1bcd3ec7edc5aafbc51f6f6ef10",
    ("LOW", 1.2, 1): "76619c364b88449db68face907e468a52b6c27eab11f5d230605f60c8c330250",
    ("LOW", 1.2, 4): "2f6887310d82868f40f38bb7a5c596714761fffea96833c36e91e0e2b0103058",
    ("OPT", 0.8, 1): "18e58128e5c617bc1fddd17cfb669af351d423994b77bc8b780b9b0912f073bf",
    ("OPT", 0.8, 4): "e7a514a2b29b911e5d17d0cd17ac85446f3626282defd579edfa31ffd971efb6",
    ("OPT", 1.2, 1): "d0c8e13b8736986c4f4be8fff6211fb4d22342493b1897b817878cd73baa1faa",
    ("OPT", 1.2, 4): "a97089fb6495c2543373d712dbe807e14a496d230022962a12b52773da8bb229",
    ("2PL", 0.8, 1): "f3ad36962373f010489cd7674769f5fd8b190a32735eb3b74da075c507f8577f",
    ("2PL", 0.8, 4): "823e4005b2b940a31d90d52ffd4144e78e920dab3b51be2573333f8b58b71f0e",
    ("2PL", 1.2, 1): "2d4a2584b937d5423deb3985d03bcb2648ff34d0e21739e0fcb7e34977dda948",
    ("2PL", 1.2, 4): "e2c2a1a3ede9727c2aa4c17e746cf963fad829320bcf2fc44862e2eaca4c3044",
    ("LOW-LB", 0.8, 1): "323f751b81971d95932eac28a2b50d38aedf5c7428d5c95b8c7bd5dd3297c0ff",
    ("LOW-LB", 0.8, 4): "47dc339bbebae8349cf65fea2bb482891df98bdf1a0db5662d542a48275755a5",
    ("LOW-LB", 1.2, 1): "30d4adaef310e0411657099d34fc47687b67ffad7f23e49d830c93cfef0d6eb5",
    ("LOW-LB", 1.2, 4): "8d5ed4b71029423d27898c36780981a781118415a3b2f7a2b6a8ba89fae80890",
}


#: (scheduler, rate_tps, dd) -> digest, exp1, seed 1, 60 s with 5 s warm-up
WIDE_DIGESTS = {
    ("NODC", 0.8, 8): "bc6802135012f708dc74d520275cf4f623565ecb1e9d4f198b4c0ea3ffcb0bd8",
    ("ASL", 0.8, 8): "fa1b8ea3ce4d7fabf19ed65366b53bb50f14cb24c2272eb7b0453c492fd7efa3",
    ("C2PL", 0.8, 8): "88c4b58366327fe73cc6f635ac0b6104f2273524bb5236e7535c2f9966718d38",
    ("OPT", 0.8, 8): "6cb671ce2c7febf2f4c8eef71c22c207277de79fe21492058b097ae408b23c79",
    ("GOW", 0.8, 8): "9e8037d821210e2c5274140fe066ddc8b795c30cf5ec1e9dc400d9c0efa6a106",
    ("LOW", 0.8, 8): "06c600b6273c42e34f34ef778ca35315af97c22cd9f7031db40bf0618202be18",
    ("DGCC", 0.8, 4): "922ef5754ac96cd95c420a95076f8d01ced98037c3270b131003c0f11858b4b3",
    ("PRED", 0.8, 4): "25259fa247de30686034824f198c56473e8091da327453d2075c357961f76a6d",
    ("CAR", 0.8, 4): "a306addeb3538016f16fc7e79f24ed0a2c6c6a94718f1c8033cef44fd4a421df",
}

#: sha256 of the exports of the C2PL exp1 lambda = 0.8 DD = 8 cell above
TRACE_JSONL_SHA256 = (
    "3ed55efe87b4a4527c7057a624c51b2d834a3b26e5ec266c80bcd5814ffd541d"
)
SERIES_JSON_SHA256 = (
    "ff239bdaed68707dd54f5f3ffd0e5ed340473bebccc588ac9faa4e945241484f"
)


#: (scheduler, rate_tps, dd) -> digest, exp2, seed 1, 200 s with 5 s warm-up
EXP2_DIGESTS = {
    ("GOW", 0.6, 1): "d074f1dbc245d9df689c8db8531406048418a585030e2c2bc1142cef93fb1ca1",
    ("GOW", 0.6, 4): "2cc21ba4954fad0e5c8ec3c7982966bff06a5ff7fadc632be74e59cb0801dbf2",
    ("LOW", 0.6, 1): "2d7d8fcba479579dd01c451af97c8fed8c9d7e553200b105116bc2b4706af7c1",
    ("LOW", 0.6, 4): "eb9d46fb41aaf612c5dbcf34682bb3e333d445dfc28c7e47926a7022a8de7259",
}


def _digest(result):
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _exp1(scheduler, rate, dd, **observers):
    return run_simulation(
        scheduler,
        experiment1_workload(rate),
        MachineConfig(dd=dd),
        seed=1,
        duration_ms=60_000.0,
        warmup_ms=5_000.0,
        **observers,
    )


@pytest.mark.parametrize(
    "scheduler, rate, dd", sorted(DIGESTS), ids=lambda v: str(v)
)
def test_paper_scheduler_results_are_pinned(scheduler, rate, dd):
    result = _exp1(scheduler, rate, dd)
    assert _digest(result) == DIGESTS[(scheduler, rate, dd)]


@pytest.mark.parametrize(
    "scheduler, rate, dd", sorted(WIDE_DIGESTS), ids=lambda v: str(v)
)
def test_wide_declustering_results_are_pinned(scheduler, rate, dd):
    result = _exp1(scheduler, rate, dd)
    assert _digest(result) == WIDE_DIGESTS[(scheduler, rate, dd)]


def test_trace_and_series_exports_are_pinned(tmp_path):
    recorder = MemoryRecorder()
    sampler = TimeSeriesSampler(interval_ms=1_000.0)
    result = _exp1("C2PL", 0.8, 8, recorder=recorder, sampler=sampler)
    assert _digest(result) == WIDE_DIGESTS[("C2PL", 0.8, 8)]
    trace = write_jsonl(recorder.events, tmp_path / "trace.jsonl")
    series = write_series_json(sampler, tmp_path / "series.json")
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_JSONL_SHA256
    assert hashlib.sha256(series.read_bytes()).hexdigest() == SERIES_JSON_SHA256


@pytest.mark.parametrize(
    "scheduler, rate, dd", sorted(EXP2_DIGESTS), ids=lambda v: str(v)
)
def test_exp2_hot_set_results_are_pinned(scheduler, rate, dd):
    result = run_simulation(
        scheduler,
        experiment2_workload(rate),
        MachineConfig(dd=dd),
        seed=1,
        duration_ms=200_000.0,
        warmup_ms=5_000.0,
    )
    assert _digest(result) == EXP2_DIGESTS[(scheduler, rate, dd)]
