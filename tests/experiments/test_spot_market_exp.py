"""Tests for the spot-market experiment (crossover + frontier shift).

These encode the acceptance headline: in every market cell reservations
eventually beat restart-from-scratch spot as jobs grow (the crossover), and
checkpointing shifts that frontier toward longer jobs — beyond the sweep
when checkpoints are cheap, still finite when interruptions are frequent
*and* checkpoints are expensive.
"""

import math

import pytest

from repro.experiments.common import ExperimentConfig
from repro.experiments.spot_market_exp import (
    SpotMarketRow,
    format_spot_market_experiment,
    run_spot_market_experiment,
)

QUICK = ExperimentConfig(n_discrete=120)


@pytest.fixture(scope="module")
def cells():
    # One volatility, one hostile base rate, cheap vs expensive checkpoints:
    # the two-cell slice that exhibits both sides of the frontier shift.
    return run_spot_market_experiment(
        volatilities=(0.0,),
        base_rates=(1.0,),
        overheads=(0.05, 1.0),
        mean_hours_sweep=(0.5, 8.0, 72.0),
        config=QUICK,
    )


class TestCrossover:
    def test_short_jobs_prefer_spot(self, cells):
        for cell in cells:
            assert cell.rows[0].winner != "reserved", cell

    def test_restart_crossover_exists_everywhere(self, cells):
        for cell in cells:
            assert cell.crossover_restart is not None, cell
            # Past the crossover scale, restart spot never wins again.
            for row in cell.rows:
                if row.mean_hours >= cell.crossover_restart:
                    assert row.reserved_cost < row.spot_restart_cost

    def test_checkpointing_shifts_the_frontier(self, cells):
        cheap, harsh = cells
        assert cheap.checkpoint_overhead < harsh.checkpoint_overhead
        for cell in cells:
            cs, cr = cell.crossover_spot, cell.crossover_restart
            assert cs is None or cs >= cr
        # Cheap checkpoints push the crossover beyond the sweep entirely...
        assert cheap.crossover_spot is None
        # ...expensive ones only soften the blowup: reservations still win.
        assert harsh.crossover_spot is not None
        assert harsh.rows[-1].winner == "reserved"

    def test_checkpointed_never_above_restart_at_scale(self, cells):
        for cell in cells:
            long_row = cell.rows[-1]
            assert long_row.spot_checkpointed_cost < long_row.spot_restart_cost


class TestRows:
    def test_winner_tie_breaks_to_reserved(self):
        row = SpotMarketRow(
            mean_hours=1.0,
            reserved_cost=2.0,
            spot_restart_cost=5.0,
            spot_checkpointed_cost=4.0,
            mixed_cost=2.0,  # degenerate mixed plan == the reserved plan
            mixed_cap=0.0,
            mc_checkpointed_cost=None,
            mc_std_error=None,
        )
        assert row.winner == "reserved"

    def test_winner_mixed_requires_a_real_cap(self):
        row = SpotMarketRow(
            mean_hours=1.0,
            reserved_cost=5.0,
            spot_restart_cost=4.0,
            spot_checkpointed_cost=3.5,
            mixed_cost=3.0,
            mixed_cap=1.5,
            mc_checkpointed_cost=None,
            mc_std_error=None,
        )
        assert row.winner == "mixed"

    def test_mc_runs_only_in_volatile_cells(self, cells):
        for cell in cells:
            for row in cell.rows:
                assert row.mc_checkpointed_cost is None

    def test_volatile_cell_reports_mc(self):
        cells = run_spot_market_experiment(
            volatilities=(0.1,),
            base_rates=(0.3,),
            overheads=(0.05,),
            mean_hours_sweep=(1.0,),
            config=QUICK,
            n_paths=300,
        )
        row = cells[0].rows[0]
        assert row.mc_checkpointed_cost is not None
        assert row.mc_std_error is not None and row.mc_std_error > 0.0
        assert math.isfinite(row.mc_checkpointed_cost)


class TestFormatting:
    def test_tables_and_footer(self, cells):
        text = format_spot_market_experiment(cells)
        assert "winner" in text
        assert "crossover vs restart" in text
        assert ">sweep" in text  # the cheap cell's shifted frontier
        assert "tau*=" in text

    def test_runner_registered(self):
        from repro.experiments.runner import EXPERIMENTS

        assert "spot-market" in EXPERIMENTS


class TestExtSpot:
    """``ext-spot``: the calm and volatile markets as vol-0 cells."""

    @staticmethod
    def _tables(text):
        """``[(title, [winner per row])]``: a table is titled by the line
        above its header and ends at the first line without a column."""
        tables = []
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if not line.endswith("| winner"):
                continue
            winners = []
            for row in lines[i + 2:]:
                if "|" not in row:
                    break
                winners.append(row.split("|")[-1].strip())
            tables.append((lines[i - 1], winners))
        return tables

    def test_market_titles_and_winners(self):
        from repro.experiments.common import QUICK as QUICK_PRESET
        from repro.experiments.runner import EXPERIMENTS

        tables = self._tables(EXPERIMENTS["ext-spot"](QUICK_PRESET))
        assert len(tables) == 2
        (calm_title, calm), (volatile_title, volatile) = tables
        # Each block is titled with its own market, not a shared one.
        assert "0.1/h" in calm_title and "0.05h" in calm_title
        assert " 5/h" in volatile_title and "0.5h" in volatile_title
        assert len(calm) == len(volatile) == 5
        assert calm[0] == "spot"  # the 0.5 h row
        assert volatile == ["reserved"] * 5

    def test_runner_registered(self):
        from repro.experiments.runner import EXPERIMENTS

        assert "ext-spot" in EXPERIMENTS
