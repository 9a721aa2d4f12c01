"""Dominance certificates, diagonalization, and the synthesis pipeline."""

from fractions import Fraction as F

import pytest

import paclab as pl
from paclab.dist import frac_str
from paclab.errors import BadN, EmptyList, LengthMismatch
from paclab.nfl import reference_lines

SEED = 20260808


def table(fn, k, rule=None):
    return pl.FunctionTable.from_rule(fn, k, rule=rule)


class TestDominatesPrefix:
    def test_successor_witness_one(self):
        g = table(lambda k: 3 * k, 10)
        f = table(lambda k: 3 * k + 1, 10)
        cert = pl.dominates_prefix(f, g)
        assert cert.dominates and cert.witness == 1

    def test_crossing_witness(self):
        f = table(lambda k: k * k, 20, rule=("poly", 2))
        g = table(lambda k: 10 * k, 20, rule=("poly", 1))
        cert = pl.dominates_prefix(f, g)
        assert cert.dominates and cert.witness == 10
        assert cert.asymptotic == "dominates"

    def test_fails_at_horizon(self):
        f = table(lambda k: k, 5)
        g = table(lambda k: k + 1, 5)
        cert = pl.dominates_prefix(f, g)
        assert not cert.dominates and cert.fails_at == 5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pl.dominates_prefix(table(lambda k: k, 5), table(lambda k: k, 6))

    def test_exp_beats_poly_symbolically(self):
        f = table(lambda k: 2 ** k, 8, rule=("exp", 2))
        g = table(lambda k: k ** 3, 8, rule=("poly", 3))
        assert pl.dominates_prefix(f, g).asymptotic == "dominates"
        assert pl.dominates_prefix(g, f).asymptotic == "dominated"

    def test_orders_past_float_compare_exactly(self):
        # 10^400 overflows a float, and 10^400 + 1 rounds to the same one
        f = table(lambda k: 2 ** k, 8, rule=("exp", 10 ** 400))
        g = table(lambda k: 2 ** k, 8, rule=("exp", 10 ** 400 + 1))
        assert pl.dominates_prefix(f, table(lambda k: k, 8, rule=("poly", 2))).asymptotic \
            == "dominates"
        assert pl.dominates_prefix(f, g).asymptotic == "dominated"
        assert pl.dominates_prefix(g, f).asymptotic == "dominates"


class TestDiagonalize:
    def test_single_constant(self):
        d = pl.diagonalize([table(lambda k: 5, 6)])
        assert d.values == (6,) * 6

    def test_two_lines(self):
        d = pl.diagonalize([table(lambda k: k, 3), table(lambda k: 2 * k, 3)])
        assert d.values == (2, 5, 7)

    def test_empty(self):
        with pytest.raises(EmptyList):
            pl.diagonalize([])

    def test_dominates_each_input_from_its_position(self):
        import random
        gen = random.Random(SEED)
        for _ in range(30):
            count = gen.randint(1, 8)
            tables = [pl.FunctionTable.from_values([gen.randint(0, 50) for _ in range(12)])
                      for _ in range(count)]
            diag = pl.diagonalize(tables)
            for pos, t in enumerate(tables, start=1):
                cert = pl.dominates_prefix(diag, t)
                assert cert.dominates
                assert cert.witness <= pos


class TestSynthesize:
    def test_squares_lower_bounds(self):
        rep = pl.synthesize(table(lambda k: k * k, 5, rule=("poly", 2)))
        assert rep.lower_bounds.values == (4, 10, 20, 34, 52)
        assert rep.certificate.dominates and rep.certificate.witness == 1
        assert rep.spot_check is None

    def test_zero_target(self):
        rep = pl.synthesize(pl.FunctionTable.from_values([0, 0, 0]))
        assert rep.lower_bounds.values == (2, 2, 2)

    def test_exponential_target_stays_lazy(self):
        g = table(lambda k: 2 ** k, 10, rule=("exp", 2))
        rep = pl.synthesize(g)
        assert rep.lower_bounds.values[-1] == 2 * (2 ** 10 + 1)
        cls = pl.synthesized_class(g)
        # sizes of far stages are computable without materializing anything
        assert cls.stage_size(10) == 2 ** (8 * (2 ** 10 + 1)) - 1

    def test_spec_matches_stage_rules(self):
        g = table(lambda k: k * k, 5)
        cls = pl.synthesized_class(g)
        assert cls.spec.eta_value(8) == 1  # clamped at small k
        assert cls.spec.eta_value(16) == F(1, 2)
        assert cls.spec.n_value(2) == 40

    def test_report_serializes(self):
        rep = pl.synthesize(table(lambda k: k * k, 5, rule=("poly", 2)))
        obj = rep.to_json_obj()
        assert obj["lower_bounds"]["values"] == [4, 10, 20, 34, 52]
        assert obj["certificate"]["dominates_on_prefix"] is True

    @pytest.mark.parametrize("k", [1, 10])
    def test_spot_check_reads_the_stage(self, k):
        # the spot check's stage width, level and conventions, and LB(k), are
        # what the synthesized class's rules give at k
        g = table(lambda k: k * k, 10)
        spec = pl.synthesized_class(g).spec
        rep = pl.synthesize(g, rng=pl.RngStream(SEED, 0), spot_check_k=k, trials=60,
                            m_max=64, targets_cap=2)
        spot, eta = rep.spot_check, spec.eta_value(k)
        assert spot["stage_width"] == spec.n_value(k) == 8 * (g.at(k) + 1)
        assert spot["subfamily"]["eta"] == frac_str(eta) == ("1/1" if k == 1 else "4/5")
        assert rep.lower_bounds.at(k) == spec.n_value(k) // 4 == 2 * (g.at(k) + 1)
        lines = reference_lines(eta)
        assert (spot["epsilon"], spot["delta"], spot["delta_reference"]) == tuple(
            frac_str(lines[name]) for name in ("eta_over_8", "markov_delta", "reference_delta"))

    @pytest.mark.parametrize("k", [0, 11])
    def test_spot_check_outside_the_table_raises_before_its_level(self, k):
        with pytest.raises(BadN):
            pl.synthesize(table(lambda k: k * k, 10), rng=pl.RngStream(SEED, 0), spot_check_k=k)
