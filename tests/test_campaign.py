"""Campaign controller and statistics tests."""

import numpy as np
import pytest

from repro.cpu import FlopRef
from repro.cpu.units import FINE_UNITS, coarse_unit, unit_flop_counts
from repro.faults import (
    CampaignConfig,
    CampaignResult,
    ErrorType,
    FaultKind,
    cached_campaign,
    diverged_set_size_ratio,
    manifestation_rates,
    mean_detection_time,
    rate_spread,
    sample_flops,
    schedule_faults,
    table1,
    time_spread,
)
from repro.reaction import manifestation_order


class TestConfig:
    def test_cache_key_stable(self):
        assert CampaignConfig().cache_key() == CampaignConfig().cache_key()

    def test_cache_key_sensitive_to_fields(self):
        assert CampaignConfig(seed=1).cache_key() != CampaignConfig(seed=2).cache_key()

    def test_presets_distinct(self):
        keys = {CampaignConfig.quick().cache_key(),
                CampaignConfig.default().cache_key(),
                CampaignConfig.full().cache_key()}
        assert len(keys) == 3

    @pytest.mark.parametrize("field,value", (
        ("soft_per_flop", -1), ("hard_per_flop", -1),
        ("intervals", 0), ("intervals", -3),
        ("mask_check_stride", 0), ("mask_check_stride", -2),
        ("max_observe", 0), ("max_observe", -5),
        ("flop_fraction", 0.0), ("flop_fraction", -1.0),
        ("flop_fraction", 1.5), ("flop_fraction", float("nan")),
    ))
    def test_out_of_range_values_rejected(self, field, value):
        """The engines would reinterpret these (``max_observe=-5`` once
        added -5 to ``cycles_saved`` per hard fault; ``intervals=0`` ran
        as 1 under a key that said 0), so the config refuses them."""
        with pytest.raises(ValueError, match=field):
            CampaignConfig(**{field: value})

    def test_boundary_values_accepted(self):
        config = CampaignConfig(soft_per_flop=0, hard_per_flop=0, intervals=1,
                                mask_check_stride=1, max_observe=1,
                                flop_fraction=1.0)
        assert CampaignConfig(max_observe=None, flop_fraction=1e-9).max_observe is None
        assert config.intervals == 1


class TestSampling:
    def test_full_fraction_selects_all(self):
        rng = np.random.default_rng(0)
        flops = sample_flops(CampaignConfig(flop_fraction=1.0), rng)
        assert len(flops) == sum(unit_flop_counts(fine=True).values())

    def test_stratified_minimum_one_per_unit(self):
        rng = np.random.default_rng(0)
        flops = sample_flops(CampaignConfig(flop_fraction=0.001), rng)
        units = {f.unit for f in flops}
        assert units == set(FINE_UNITS)

    def test_sample_reproducible_with_seed(self):
        cfg = CampaignConfig(flop_fraction=0.1)
        a = sample_flops(cfg, np.random.default_rng(5))
        b = sample_flops(cfg, np.random.default_rng(5))
        assert a == b

    def test_no_duplicates(self):
        flops = sample_flops(CampaignConfig(flop_fraction=0.5),
                             np.random.default_rng(1))
        assert len(set(flops)) == len(flops)


class TestSchedule:
    def test_fault_counts(self):
        cfg = CampaignConfig(soft_per_flop=3, hard_per_flop=2)
        faults = schedule_faults(FlopRef("pc", 0), 1280, cfg,
                                 np.random.default_rng(0))
        kinds = [f.kind for f in faults]
        assert kinds.count(FaultKind.SOFT) == 3
        assert kinds.count(FaultKind.STUCK0) == 2
        assert kinds.count(FaultKind.STUCK1) == 2

    def test_cycles_in_range(self):
        cfg = CampaignConfig()
        faults = schedule_faults(FlopRef("pc", 0), 999, cfg,
                                 np.random.default_rng(0))
        assert all(0 <= f.cycle < 999 for f in faults)

    def test_soft_intervals_distinct(self):
        cfg = CampaignConfig(soft_per_flop=8, intervals=64)
        n_cycles = 6400
        faults = schedule_faults(FlopRef("pc", 0), n_cycles, cfg,
                                 np.random.default_rng(0))
        soft = [f.cycle // 100 for f in faults if f.kind is FaultKind.SOFT]
        assert len(set(soft)) == len(soft)

    def test_short_run_does_not_crash(self):
        cfg = CampaignConfig(soft_per_flop=80)
        faults = schedule_faults(FlopRef("pc", 0), 10, cfg,
                                 np.random.default_rng(0))
        assert all(0 <= f.cycle < 10 for f in faults)

    def test_vectorised_draws_match_scalar_stream(self):
        """The property ``pick_cycles`` relies on: a single vectorised
        ``integers(highs)`` draw consumes the Generator bitstream
        element-for-element like the equivalent scalar call sequence,
        so the vectorised scheduler reproduces historical schedules."""
        for trial in range(8):
            highs = np.random.default_rng(100 + trial).integers(
                1, 23, size=64)
            scalar_rng = np.random.default_rng(trial)
            scalar = [int(scalar_rng.integers(int(h))) for h in highs]
            vector_rng = np.random.default_rng(trial)
            assert vector_rng.integers(highs).tolist() == scalar

    def test_schedule_matches_scalar_reference(self):
        """Pin the vectorised scheduler to the pre-vectorisation scalar
        algorithm (interval-by-interval draws) on mixed-length interval
        grids — schedules are part of the campaign digest contract."""
        cfg = CampaignConfig(soft_per_flop=16, hard_per_flop=2)

        def scalar_reference(n_cycles, rng):
            n_intervals = max(1, min(cfg.intervals, n_cycles))
            base, extra = divmod(n_cycles, n_intervals)

            def pick(count):
                count = min(count, n_intervals)
                out = []
                for iv in rng.choice(n_intervals, size=count,
                                     replace=False):
                    iv = int(iv)
                    lo = iv * base + min(iv, extra)
                    out.append(lo + int(rng.integers(
                        base + (1 if iv < extra else 0))))
                return out

            cycles = pick(cfg.soft_per_flop)
            cycles += pick(cfg.hard_per_flop) + pick(cfg.hard_per_flop)
            return cycles

        for n_cycles in (10, 63, 64, 65, 999, 1414):
            for seed in range(10):
                faults = schedule_faults(FlopRef("pc", 0), n_cycles, cfg,
                                         np.random.default_rng(seed))
                expected = scalar_reference(n_cycles,
                                            np.random.default_rng(seed))
                assert [f.cycle for f in faults] == expected


class TestCampaignRun:
    def test_quick_campaign_manifests_errors(self, quick_campaign):
        assert quick_campaign.n_errors > 20
        assert 0 < quick_campaign.n_errors < quick_campaign.n_injected

    def test_injection_accounting(self, quick_campaign):
        assert quick_campaign.n_injected == sum(quick_campaign.injected.values())
        assert quick_campaign.n_errors <= quick_campaign.n_injected

    def test_records_reference_config_benchmarks(self, quick_campaign):
        benches = set(quick_campaign.config.benchmarks)
        assert {r.benchmark for r in quick_campaign.records} <= benches

    def test_golden_cycles_recorded(self, quick_campaign):
        for bench in quick_campaign.config.benchmarks:
            assert quick_campaign.golden_cycles[bench] > 100

    def test_reproducible_with_seed(self, quick_campaign):
        from repro.faults import run_campaign
        again = run_campaign(CampaignConfig.quick())
        assert again.n_injected == quick_campaign.n_injected
        assert [r.diverged for r in again.records] == \
               [r.diverged for r in quick_campaign.records]


class TestPersistence:
    def test_save_load_roundtrip(self, quick_campaign, tmp_path):
        path = tmp_path / "campaign.pkl"
        quick_campaign.save(path)
        loaded = CampaignResult.load(path)
        assert loaded.n_injected == quick_campaign.n_injected
        assert loaded.records[0] == quick_campaign.records[0]

    def test_cached_campaign_uses_cache(self, tmp_path):
        cfg = CampaignConfig.quick()
        first = cached_campaign(cfg, cache_dir=tmp_path)
        second = cached_campaign(cfg, cache_dir=tmp_path)
        assert second.n_errors == first.n_errors

    def test_load_rejects_wrong_payload(self, tmp_path):
        import pickle
        path = tmp_path / "bogus.pkl"
        with open(path, "wb") as fh:
            pickle.dump({"not": "a campaign"}, fh)
        with pytest.raises(TypeError):
            CampaignResult.load(path)


class TestStats:
    def test_rates_bounded(self, quick_campaign):
        for etype in (ErrorType.SOFT, ErrorType.HARD):
            for rate in manifestation_rates(quick_campaign, etype).values():
                assert 0.0 <= rate <= 1.0

    def test_all_kinds_rates_order_base_manifest(self, quick_campaign):
        rates = manifestation_rates(quick_campaign, None)
        for unit, rate in rates.items():
            injected = sum(n for (fine, _kind), n in quick_campaign.injected.items()
                           if coarse_unit(fine) == unit)
            errors = sum(r.coarse_unit == unit for r in quick_campaign.records)
            assert rate == (errors / injected if injected else 0.0)
        order = manifestation_order(quick_campaign, fine=False)
        assert [rates[u] for u in order] == sorted(rates.values(), reverse=True)

    def test_rate_spread_ordered(self, quick_campaign):
        spread = rate_spread(quick_campaign, ErrorType.HARD)
        assert spread.minimum <= spread.mean <= spread.maximum

    def test_time_spread_ordered(self, quick_campaign):
        spread = time_spread(quick_campaign, ErrorType.SOFT)
        assert spread.minimum <= spread.mean <= spread.maximum

    def test_table1_has_four_rows(self, quick_campaign):
        assert len(table1(quick_campaign)) == 4

    def test_mean_detection_time_positive(self, quick_campaign):
        assert mean_detection_time(quick_campaign) >= 0.0

    def test_hard_errors_diverge_more_scs(self, medium_campaign):
        """The paper's Section III-B observation: stuck-at faults spread
        to more SCs by detection time than transients."""
        assert diverged_set_size_ratio(medium_campaign) > 1.0
