"""The static engine router: a deterministic route table and a timing gate.

``engine="auto"`` sends a prepared program to the solver iff it has no
RMW and the multinomial of its per-thread static step bounds, times
``2 ** havoc``, exceeds :data:`repro.solver.router.SAT_THRESHOLD`.
The table below pins where that puts the corpus, two fuzz campaigns and
the scaled families; the timing gate checks that ``auto`` costs a fuzz
campaign no more than ``enum`` does.
"""

import os
import time
from math import factorial

import pytest

from repro.batch import check_many
from repro.core.model import MODELS, _prepare, check
from repro.litmus.corpus import load_corpus
from repro.litmus.dsl import parse
from repro.litmus.fuzz import generate
from repro.litmus.library import SCALED_KINDS, get, scaled_chain, scaled_mp
from repro.solver.router import SAT_THRESHOLD, decide

#: The fuzz campaigns of the route table and the timing gate.
FUZZ_SEEDS = (17, 101)
FUZZ_COUNT = 500


def _routes(programs):
    return {
        (program.name, model): decide(_prepare(program, model)).engine
        for program in programs
        for model in MODELS
    }


def _scaled_programs():
    """(kind name, program) for both scaled families, n = 2..8."""
    return [
        (kind_name, build(n, kind))
        for build in (scaled_mp, scaled_chain)
        for n in range(2, 9)
        for kind_name, kind in SCALED_KINDS.items()
    ]


class TestRouteTable:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_every_fuzz_cell_routes_to_enum(self, seed):
        routes = _routes(generate(seed, FUZZ_COUNT))
        assert len(routes) == 3 * FUZZ_COUNT
        assert set(routes.values()) == {"enum"}

    def test_scaled_families_route_to_sat_exactly_above_the_bound(self):
        """Each thread of a scaled program does two memory operations,
        so n threads interleave in (2n)! / 2**n ways.  drfrlx's quantum
        transformation havocs every access with the family's kind: the
        n payload accesses of ``scaled_mp`` (its flag is paired), all
        2n of ``scaled_chain``."""
        sat = set()
        for kind_name, program in _scaled_programs():
            n = len(program.threads)
            labelled = n if program.name.startswith("scaled_mp") else 2 * n
            for model in MODELS:
                decision = decide(_prepare(program, model))
                quantum = kind_name == "quantum" and model == "drfrlx"
                havoc = labelled if quantum else 0
                expected = factorial(2 * n) // 2 ** n * 2 ** havoc
                assert decision.interleavings == expected, (program.name, model)
                assert decision.rmws == 0
                assert decision.engine == (
                    "sat" if expected > SAT_THRESHOLD else "enum"
                ), (program.name, model)
                if decision.engine == "sat":
                    sat.add((program.name, model))
        for model in MODELS:
            assert ("scaled_mp_quantum_6", model) in sat
            assert (scaled_chain(8).name, model) in sat
            assert ("scaled_mp_unpaired_4", model) not in sat
        assert ("scaled_chain_quantum_4", "drfrlx") in sat

    def test_ref_counter_stays_on_enum(self):
        program = next(
            entry.program for entry in load_corpus()
            if entry.name == "ref_counter_dsl"
        )
        for model in MODELS:
            decision = decide(_prepare(program, model))
            assert decision.rmws > 0
            assert decision.engine == "enum"
            assert check(program, model, engine="auto").engine == "enum"

    def test_an_rmw_keeps_a_wide_program_on_enum(self):
        """Six threads of two operations each are far above the bound,
        but one RMW pins the program to the enumerator."""
        threads = "".join(
            f"thread:\n  st x{i} 1 paired\n  r{i} = ld x{(i + 1) % 6} paired\n"
            for i in range(5)
        )
        threads += "thread:\n  st x5 1 paired\n  r5 = rmw x0 add 1 paired\n"
        program = parse("name: wide_rmw\n" + threads)
        decision = decide(_prepare(program, "drf0"))
        assert decision.interleavings > SAT_THRESHOLD
        assert decision.rmws == 1
        assert decision.engine == "enum"


class TestDecisions:
    def test_decisions_are_pure(self):
        prepared = _prepare(scaled_mp(4), "drfrlx")
        assert decide(prepared) == decide(prepared)

    def test_corpus_programs_route_to_the_measured_faster_engine(self):
        """``enum`` checks every corpus program faster than the shared
        solver core does, and every corpus cell routes there: no
        corpus program interleaves in more than 924 ways, and seven of
        the fifteen have RMWs."""
        routes = _routes(entry.program for entry in load_corpus())
        assert len(routes) == 45
        assert set(routes.values()) == {"enum"}

    def test_check_auto_and_decide_agree_on_the_corpus(self):
        for entry in load_corpus():
            for model in MODELS:
                expected = decide(_prepare(entry.program, model)).engine
                assert check(entry.program, model, engine="auto").engine \
                    == expected


class TestMetric:
    def test_route_resolution_recorded(self):
        from repro.obs.metrics import RUNTIME

        check(get("mp_paired").program, "drf0", engine="auto")
        assert RUNTIME.as_dict().get("check_engine_route_resolved:enum")


class TestTiming:
    #: Largest allowed ``auto`` / ``enum`` time over one fuzz campaign.
    LIMIT = 1.10
    #: Alternating enum/auto rounds; each side keeps its best.
    REPEAT = 3

    @pytest.mark.bench
    @pytest.mark.skipif(
        not os.environ.get("REPRO_TIMING_GATES"),
        reason="timing gate: needs a quiet host, run by CI's solver-smoke "
               "job (set REPRO_TIMING_GATES=1)",
    )
    def test_auto_is_no_slower_than_enum_on_a_fuzz_campaign(self):
        programs = generate(FUZZ_SEEDS[1], FUZZ_COUNT)
        best = {"enum": float("inf"), "auto": float("inf")}
        for _ in range(self.REPEAT):
            for engine in best:
                t0 = time.perf_counter()
                for _result in check_many(programs, engine=engine, jobs=1):
                    pass
                best[engine] = min(best[engine], time.perf_counter() - t0)
        assert best["auto"] <= self.LIMIT * best["enum"], best
