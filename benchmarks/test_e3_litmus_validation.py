"""E3 -- concurrent validation over the litmus corpus (paper section 7).

The paper checks 2175 litmus tests exhaustively, verifying that the model's
result set includes everything observed on POWER G5/6/7/8 hardware, and
fixed the small number of model problems this identified.  Our corpus is
the canonical named shapes (the full diy suite is not redistributable);
the bench reports soundness (observed => allowed) and exact agreement with
the published architectural statuses.

Set REPRO_E3_FULL=1 to include the multi-minute 3-4 thread shapes.
"""

import os

from conftest import print_table

from repro.litmus.library import corpus
from repro.litmus.runner import run_litmus

FULL = os.environ.get("REPRO_E3_FULL") == "1"

#: Exhaustive exploration of these exceeds bench latency budgets.
HEAVY = {
    "IRIW", "IRIW+addrs", "IRIW+syncs", "RWC+syncs", "ISA2",
    "2+2W", "2+2W+syncs", "2+2W+lwsyncs", "LB+datas+WW", "LB+addrs+WW",
    "PPOCA", "PPOAA", "WRC", "WRC+addrs", "WRC+sync+addr", "WRC+lwsync+addr",
    "ISA2+sync+data+addr",
}


def test_e3_litmus_validation(model, benchmark):
    entries = [
        entry for entry in corpus() if FULL or entry.name not in HEAVY
    ]

    def run_entries():
        results = {}
        for entry in entries:
            results[entry.name] = run_litmus(entry.parse(), model)
        return results

    results = benchmark.pedantic(run_entries, rounds=1, iterations=1)

    rows = []
    sound = exact = 0
    for entry in entries:
        result = results[entry.name]
        sound_here = (not entry.observed) or result.witnessed
        exact_here = result.status == entry.architected
        sound += sound_here
        exact += exact_here
        rows.append(
            (
                entry.name,
                entry.architected,
                "yes" if entry.observed else "no",
                result.status,
                result.exploration.stats.states_visited,
                "ok" if exact_here else "MISMATCH",
            )
        )
    print_table(
        "E3: concurrent validation "
        "(paper: 2175 tests, model result sets include all hw-observed)",
        ["test", "architected", "hw-obs", "model", "states", "verdict"],
        rows,
    )
    print(
        f"\ncorpus: {len(entries)} shapes | sound: {sound}/{len(entries)} "
        f"| exact status agreement: {exact}/{len(entries)}"
    )
    assert sound == len(entries), "model unsound vs hardware observations"
    assert exact == len(entries), "model disagrees with architected status"
